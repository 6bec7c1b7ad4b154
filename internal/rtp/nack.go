package rtp

import (
	"encoding/binary"
	"fmt"
)

// FmtNACK is the RFC 4585 Generic NACK transport-layer feedback message
// type (PT=205, FMT=1).
const FmtNACK = 1

// NackPair is one RFC 4585 §6.2.1 FCI entry: a packet ID plus a bitmask of
// the 16 following sequence numbers, so one pair reports up to 17 losses.
type NackPair struct {
	// PID is the RTP sequence number of the first lost packet.
	PID uint16
	// BLP is the bitmask of following lost packets: bit i (LSB first) set
	// means PID+i+1 is also lost.
	BLP uint16
}

// AppendSeqs appends the sequence numbers the pair reports to dst.
func (p NackPair) AppendSeqs(dst []uint16) []uint16 {
	dst = append(dst, p.PID)
	for i := 0; i < 16; i++ {
		if p.BLP&(1<<i) != 0 {
			dst = append(dst, p.PID+uint16(i)+1)
		}
	}
	return dst
}

// AppendNackPairs packs an ascending run of lost sequence numbers into the
// minimal set of FCI pairs and appends them to dst. The input must be in
// (wrapping) ascending order, as the loss detector produces it.
func AppendNackPairs(dst []NackPair, seqs []uint16) []NackPair {
	for i := 0; i < len(seqs); {
		pair := NackPair{PID: seqs[i]}
		i++
		for i < len(seqs) {
			d := seqs[i] - pair.PID
			if d == 0 || d > 16 {
				break
			}
			pair.BLP |= 1 << (d - 1)
			i++
		}
		dst = append(dst, pair)
	}
	return dst
}

// NACK is an RFC 4585 Generic NACK feedback packet.
type NACK struct {
	SenderSSRC uint32
	MediaSSRC  uint32
	Pairs      []NackPair
}

// AppendSeqs expands every FCI pair and appends the NACKed sequence
// numbers to dst.
func (n *NACK) AppendSeqs(dst []uint16) []uint16 {
	for _, p := range n.Pairs {
		dst = p.AppendSeqs(dst)
	}
	return dst
}

// MarshalSize returns the wire size of the packet.
func (n *NACK) MarshalSize() int {
	return rtcpHeaderSize + 8 + 4*len(n.Pairs)
}

// AppendTo appends the serialized packet to dst.
func (n *NACK) AppendTo(dst []byte) ([]byte, error) {
	if len(n.Pairs) > 0xFFFF-2 {
		return dst, fmt.Errorf("rtp: %d nack pairs exceed the RTCP length field", len(n.Pairs))
	}
	size := n.MarshalSize()
	out, buf := appendZeros(dst, size)
	h := rtcpHeader{Fmt: FmtNACK, Type: TypeTransportFeedback, Length: wordLength(size)}
	if err := h.marshalTo(buf); err != nil {
		return dst, err
	}
	binary.BigEndian.PutUint32(buf[4:], n.SenderSSRC)
	binary.BigEndian.PutUint32(buf[8:], n.MediaSSRC)
	for i, p := range n.Pairs {
		binary.BigEndian.PutUint16(buf[12+4*i:], p.PID)
		binary.BigEndian.PutUint16(buf[14+4*i:], p.BLP)
	}
	return out, nil
}

// Unmarshal parses a Generic NACK feedback packet. It refills Pairs in
// place, so a NACK unmarshalled into repeatedly stops allocating.
func (n *NACK) Unmarshal(buf []byte) error {
	var h rtcpHeader
	if err := h.unmarshal(buf); err != nil {
		return err
	}
	if h.Type != TypeTransportFeedback || h.Fmt != FmtNACK {
		return fmt.Errorf("rtp: not a generic nack (pt %d fmt %d)", h.Type, h.Fmt)
	}
	size, err := declaredSize(h, buf, rtcpHeaderSize+8)
	if err != nil {
		return err
	}
	n.SenderSSRC = binary.BigEndian.Uint32(buf[4:])
	n.MediaSSRC = binary.BigEndian.Uint32(buf[8:])
	n.Pairs = n.Pairs[:0]
	for off := 12; off+4 <= size; off += 4 {
		n.Pairs = append(n.Pairs, NackPair{
			PID: binary.BigEndian.Uint16(buf[off:]),
			BLP: binary.BigEndian.Uint16(buf[off+2:]),
		})
	}
	return nil
}
