package rtp

import (
	"encoding/binary"
	"fmt"
)

// RFC 4585 §6.3.1 Picture Loss Indication: payload-specific feedback
// (PT=206) with FMT=1 and no FCI — the two SSRCs are the whole message.
const (
	TypePayloadFeedback = 206
	FmtPLI              = 1
)

const pliSize = rtcpHeaderSize + 8

// PLI is the receiver's keyframe request.
type PLI struct {
	SenderSSRC uint32
	MediaSSRC  uint32
}

// AppendTo appends the serialized packet to dst.
func (p *PLI) AppendTo(dst []byte) ([]byte, error) {
	out, buf := appendZeros(dst, pliSize)
	h := rtcpHeader{Fmt: FmtPLI, Type: TypePayloadFeedback, Length: wordLength(pliSize)}
	if err := h.marshalTo(buf); err != nil {
		return dst, err
	}
	binary.BigEndian.PutUint32(buf[4:], p.SenderSSRC)
	binary.BigEndian.PutUint32(buf[8:], p.MediaSSRC)
	return out, nil
}

// Unmarshal parses a picture loss indication.
func (p *PLI) Unmarshal(buf []byte) error {
	var h rtcpHeader
	if err := h.unmarshal(buf); err != nil {
		return err
	}
	if h.Type != TypePayloadFeedback || h.Fmt != FmtPLI {
		return fmt.Errorf("rtp: not a picture loss indication (pt %d fmt %d)", h.Type, h.Fmt)
	}
	if _, err := declaredSize(h, buf, pliSize); err != nil {
		return err
	}
	p.SenderSSRC = binary.BigEndian.Uint32(buf[4:])
	p.MediaSSRC = binary.BigEndian.Uint32(buf[8:])
	return nil
}

// PeekRTCP reads the packet type and the count/format field of an RTCP
// datagram without parsing its body, so a socket reader can route it to the
// one parser that applies. ok is false for anything not RTCP-shaped: shorter
// than a header, the wrong version, a type outside the RFC 5761 RTCP range
// (so an RTP packet multiplexed on the same port is not mistaken for one),
// or a length field claiming more bytes than arrived.
func PeekRTCP(buf []byte) (pt, format uint8, ok bool) {
	var h rtcpHeader
	if h.unmarshal(buf) != nil || h.Type < 192 || h.Type > 223 || len(buf) < 4*(int(h.Length)+1) {
		return 0, 0, false
	}
	return h.Type, h.Fmt, true
}
