// Package rtp implements the wire formats the measurement pipeline uses:
// RFC 3550 RTP packets with RFC 8285 one-byte header extensions (carrying
// the transport-wide sequence number GCC needs), the transport-wide
// congestion-control RTCP feedback format consumed by GCC
// (draft-holmer-rmcat-transport-wide-cc-extensions-01), the RFC 8888
// congestion-control feedback format consumed by SCReAM, and a
// packetizer/depacketizer for the video frame workload.
//
// All formats marshal to and parse from real wire bytes; the simulator only
// needs sizes, but byte-level fidelity keeps the live UDP mode and the
// simulated mode on one code path.
package rtp

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the RTP protocol version.
const Version = 2

// HeaderSize is the size of a fixed RTP header without CSRCs or extensions.
const HeaderSize = 12

// ExtensionIDTransportSeq is the RFC 8285 extension ID under which the
// transport-wide sequence number travels in this pipeline.
const ExtensionIDTransportSeq = 5

var (
	// ErrShortPacket reports a buffer too small to contain the claimed
	// structure.
	ErrShortPacket = errors.New("rtp: short packet")
	// ErrBadVersion reports a packet whose version field is not 2.
	ErrBadVersion = errors.New("rtp: bad version")
)

// Extension is one RFC 8285 one-byte-header extension element.
type Extension struct {
	ID      uint8 // 1..14
	Payload []byte
}

// Header is an RTP packet header.
type Header struct {
	Padding        bool
	Marker         bool
	PayloadType    uint8
	SequenceNumber uint16
	Timestamp      uint32
	SSRC           uint32
	CSRC           []uint32
	Extensions     []Extension
}

// onebyteProfile is the "defined by profile" value for RFC 8285 one-byte
// header extensions.
const onebyteProfile = 0xBEDE

// extensionWireLen returns the byte length of the extension block, including
// the 4-byte extension header and padding to a 32-bit boundary, or 0 when
// there are no extensions.
func (h *Header) extensionWireLen() int {
	if len(h.Extensions) == 0 {
		return 0
	}
	n := 0
	for _, e := range h.Extensions {
		n += 1 + len(e.Payload)
	}
	// Pad element data to a multiple of 4.
	if rem := n % 4; rem != 0 {
		n += 4 - rem
	}
	return 4 + n
}

// MarshalSize returns the number of bytes Marshal will produce.
func (h *Header) MarshalSize() int {
	return HeaderSize + 4*len(h.CSRC) + h.extensionWireLen()
}

// MarshalTo serializes the header into buf, returning the bytes written.
func (h *Header) MarshalTo(buf []byte) (int, error) {
	size := h.MarshalSize()
	if len(buf) < size {
		return 0, ErrShortPacket
	}
	if len(h.CSRC) > 15 {
		return 0, fmt.Errorf("rtp: %d CSRCs exceeds the maximum of 15", len(h.CSRC))
	}
	buf[0] = Version << 6
	if h.Padding {
		buf[0] |= 1 << 5
	}
	if len(h.Extensions) > 0 {
		buf[0] |= 1 << 4
	}
	buf[0] |= uint8(len(h.CSRC))
	buf[1] = h.PayloadType & 0x7F
	if h.Marker {
		buf[1] |= 1 << 7
	}
	binary.BigEndian.PutUint16(buf[2:], h.SequenceNumber)
	binary.BigEndian.PutUint32(buf[4:], h.Timestamp)
	binary.BigEndian.PutUint32(buf[8:], h.SSRC)
	off := HeaderSize
	for _, c := range h.CSRC {
		binary.BigEndian.PutUint32(buf[off:], c)
		off += 4
	}
	if len(h.Extensions) > 0 {
		binary.BigEndian.PutUint16(buf[off:], onebyteProfile)
		words := (h.extensionWireLen() - 4) / 4
		binary.BigEndian.PutUint16(buf[off+2:], uint16(words))
		off += 4
		start := off
		for _, e := range h.Extensions {
			if e.ID < 1 || e.ID > 14 {
				return 0, fmt.Errorf("rtp: extension id %d out of one-byte range 1..14", e.ID)
			}
			if len(e.Payload) < 1 || len(e.Payload) > 16 {
				return 0, fmt.Errorf("rtp: extension payload length %d out of range 1..16", len(e.Payload))
			}
			buf[off] = e.ID<<4 | uint8(len(e.Payload)-1)
			off++
			off += copy(buf[off:], e.Payload)
		}
		for (off-start)%4 != 0 {
			buf[off] = 0 // RFC 8285 padding
			off++
		}
	}
	return off, nil
}

// Unmarshal parses an RTP header, returning the number of header bytes
// consumed.
func (h *Header) Unmarshal(buf []byte) (int, error) {
	if len(buf) < HeaderSize {
		return 0, ErrShortPacket
	}
	if buf[0]>>6 != Version {
		return 0, ErrBadVersion
	}
	h.Padding = buf[0]&(1<<5) != 0
	hasExt := buf[0]&(1<<4) != 0
	cc := int(buf[0] & 0x0F)
	h.Marker = buf[1]&(1<<7) != 0
	h.PayloadType = buf[1] & 0x7F
	h.SequenceNumber = binary.BigEndian.Uint16(buf[2:])
	h.Timestamp = binary.BigEndian.Uint32(buf[4:])
	h.SSRC = binary.BigEndian.Uint32(buf[8:])
	off := HeaderSize
	if len(buf) < off+4*cc {
		return 0, ErrShortPacket
	}
	h.CSRC = h.CSRC[:0]
	for i := 0; i < cc; i++ {
		h.CSRC = append(h.CSRC, binary.BigEndian.Uint32(buf[off:]))
		off += 4
	}
	h.Extensions = h.Extensions[:0]
	if hasExt {
		if len(buf) < off+4 {
			return 0, ErrShortPacket
		}
		profile := binary.BigEndian.Uint16(buf[off:])
		words := int(binary.BigEndian.Uint16(buf[off+2:]))
		off += 4
		if len(buf) < off+4*words {
			return 0, ErrShortPacket
		}
		ext := buf[off : off+4*words]
		off += 4 * words
		if profile == onebyteProfile {
			for i := 0; i < len(ext); {
				if ext[i] == 0 { // padding
					i++
					continue
				}
				id := ext[i] >> 4
				length := int(ext[i]&0x0F) + 1
				i++
				if id == 15 { // reserved: stop processing
					break
				}
				if i+length > len(ext) {
					return 0, ErrShortPacket
				}
				h.Extensions = append(h.Extensions, Extension{ID: id, Payload: append([]byte(nil), ext[i:i+length]...)})
				i += length
			}
		}
		// Unknown profiles: extension data skipped but header remains valid.
	}
	return off, nil
}

// TransportSeq extracts the transport-wide sequence number extension.
func (h *Header) TransportSeq() (uint16, bool) {
	for _, e := range h.Extensions {
		if e.ID == ExtensionIDTransportSeq && len(e.Payload) == 2 {
			return binary.BigEndian.Uint16(e.Payload), true
		}
	}
	return 0, false
}

// Packet is an RTP packet.
//
// PadLen models RFC 3550 padding (≤ 255 bytes, materialized by Marshal with
// the padding bit set). VirtualPayloadLen models synthetic media payload
// bytes that count toward the wire size but are not held in memory: the
// simulator moves multi-megabit video without materializing it, while
// Marshal writes that many zero filler bytes for the live UDP mode. After
// Unmarshal, former virtual bytes appear as real payload bytes.
//
// A Packetizer's packets are recycled under a reference count: see Retain,
// Release and pool.go.
type Packet struct {
	Header            Header
	Payload           []byte
	VirtualPayloadLen int
	PadLen            int

	// slot is the recycled slot holding the packet; nil when no packetizer
	// made it.
	slot *packetSlot
}

// MarshalSize returns the wire size of the packet.
func (p *Packet) MarshalSize() int {
	return p.Header.MarshalSize() + len(p.Payload) + p.VirtualPayloadLen + p.PadLen
}

// Marshal serializes the packet, materializing PadLen zero bytes (with the
// RTP padding bit and trailing pad count per RFC 3550 when PadLen > 0).
func (p *Packet) Marshal() ([]byte, error) {
	h := p.Header
	if p.PadLen > 0 {
		if p.PadLen > 255 {
			return nil, fmt.Errorf("rtp: pad length %d exceeds RFC 3550 maximum 255", p.PadLen)
		}
		h.Padding = true
	}
	buf := make([]byte, p.MarshalSize())
	n, err := h.MarshalTo(buf)
	if err != nil {
		return nil, err
	}
	n += copy(buf[n:], p.Payload)
	n += p.VirtualPayloadLen // zero filler
	if p.PadLen > 0 {
		buf[len(buf)-1] = byte(p.PadLen)
	}
	return buf[:n+p.PadLen], nil
}

// Unmarshal parses an RTP packet, stripping padding into PadLen.
func (p *Packet) Unmarshal(buf []byte) error {
	n, err := p.Header.Unmarshal(buf)
	if err != nil {
		return err
	}
	body := buf[n:]
	p.PadLen = 0
	if p.Header.Padding {
		if len(body) == 0 {
			return ErrShortPacket
		}
		pad := int(body[len(body)-1])
		if pad == 0 || pad > len(body) {
			return fmt.Errorf("rtp: invalid pad count %d", pad)
		}
		p.PadLen = pad
		body = body[:len(body)-pad]
		p.Header.Padding = false
	}
	p.Payload = append(p.Payload[:0], body...)
	return nil
}
