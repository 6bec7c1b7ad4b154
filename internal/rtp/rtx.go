package rtp

import "encoding/binary"

// RTXOverhead is the extra wire cost of retransmitting a packet per
// RFC 4588: the two-byte original sequence number (OSN) prepended to the
// payload. (The RTX stream carries no header extensions, which roughly
// offsets the transport-seq extension of the original.)
const RTXOverhead = 2

// RTXSize is the wire size of orig's retransmission: what WrapRTX's packet
// will marshal to, known before it is built.
func RTXSize(orig *Packet) int {
	return HeaderSize + RTXOverhead + len(orig.Payload) + orig.VirtualPayloadLen
}

// WrapRTX builds the RFC 4588 retransmission of a media packet in one of
// p's recycled slots, with one reference, its caller's (see pool.go): a
// packet on the RTX stream (own SSRC, payload type and sequence space)
// whose payload is the original sequence number followed by the original
// payload bytes. Virtual payload bytes carry over so the wire size stays
// faithful. A payload longer than a media packet's frame meta does not fit
// the slot and is copied to the heap instead.
func (p *Packetizer) WrapRTX(orig *Packet, ssrc uint32, payloadType uint8, seq uint16) *Packet {
	s := p.pool.get()
	var buf []byte
	if n := RTXOverhead + len(orig.Payload); n <= len(s.bytes) {
		buf = s.bytes[:n:n]
	} else {
		buf = make([]byte, n)
	}
	binary.BigEndian.PutUint16(buf, orig.Header.SequenceNumber)
	copy(buf[RTXOverhead:], orig.Payload)
	s.pkt = Packet{
		Header: Header{
			Marker:         orig.Header.Marker,
			PayloadType:    payloadType,
			SequenceNumber: seq,
			Timestamp:      orig.Header.Timestamp,
			SSRC:           ssrc,
		},
		Payload:           buf,
		VirtualPayloadLen: orig.VirtualPayloadLen,
		slot:              s,
	}
	return &s.pkt
}

// UnwrapRTX recovers the original media packet from an RTX packet: the OSN
// becomes the sequence number and the remaining payload bytes the media
// payload, restored onto the media stream identity. It returns the OSN so
// the repair layer can match the retransmission to its loss record. The
// packet it returns borrows rtx's payload: it is valid as long as rtx is,
// and carries no reference of its own.
func UnwrapRTX(rtx *Packet, mediaSSRC uint32, mediaPayloadType uint8) (Packet, uint16, error) {
	if len(rtx.Payload) < RTXOverhead {
		return Packet{}, 0, ErrShortPacket
	}
	osn := binary.BigEndian.Uint16(rtx.Payload)
	return Packet{
		Header: Header{
			Marker:         rtx.Header.Marker,
			PayloadType:    mediaPayloadType,
			SequenceNumber: osn,
			Timestamp:      rtx.Header.Timestamp,
			SSRC:           mediaSSRC,
		},
		Payload:           rtx.Payload[RTXOverhead:],
		VirtualPayloadLen: rtx.VirtualPayloadLen,
	}, osn, nil
}
