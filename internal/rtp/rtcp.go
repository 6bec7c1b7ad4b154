package rtp

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"
)

// RTCP packet types used by this pipeline.
const (
	// TypeTransportFeedback is the RTPFB packet type (205).
	TypeTransportFeedback = 205
	// FmtTWCC is the transport-wide congestion control feedback message
	// type (draft-holmer-rmcat-transport-wide-cc-extensions-01).
	FmtTWCC = 15
	// FmtCCFB is the RFC 8888 congestion control feedback message type.
	FmtCCFB = 11
)

// rtcpHeader is the common RTCP packet header (RFC 3550 §6.4.1 layout with
// the feedback-message-type in the count field, per RFC 4585).
type rtcpHeader struct {
	Fmt    uint8 // feedback message type (5 bits)
	Type   uint8 // packet type
	Length uint16
}

const rtcpHeaderSize = 4

func (h rtcpHeader) marshalTo(buf []byte) error {
	if len(buf) < rtcpHeaderSize {
		return ErrShortPacket
	}
	if h.Fmt > 31 {
		return fmt.Errorf("rtp: rtcp fmt %d exceeds 5 bits", h.Fmt)
	}
	buf[0] = Version<<6 | h.Fmt
	buf[1] = h.Type
	binary.BigEndian.PutUint16(buf[2:], h.Length)
	return nil
}

func (h *rtcpHeader) unmarshal(buf []byte) error {
	if len(buf) < rtcpHeaderSize {
		return ErrShortPacket
	}
	if buf[0]>>6 != Version {
		return ErrBadVersion
	}
	h.Fmt = buf[0] & 0x1F
	h.Type = buf[1]
	h.Length = binary.BigEndian.Uint16(buf[2:])
	return nil
}

// appendZeros extends dst by n zero bytes, reusing its spare capacity, and
// returns the extended slice and its n new bytes. Every RTCP AppendTo
// writes its packet into those bytes; an AppendTo that fails returns dst as
// it was.
func appendZeros(dst []byte, n int) (out, b []byte) {
	out = slices.Grow(dst, n)[:len(dst)+n]
	b = out[len(dst):]
	clear(b)
	return out, b
}

// declaredSize checks that buf holds the whole packet its header declares,
// 4*(Length+1) bytes and at least need, and returns that size. Parsers read
// within it alone: whatever follows is the next packet of a compound
// datagram, or junk.
func declaredSize(h rtcpHeader, buf []byte, need int) (int, error) {
	size := 4 * (int(h.Length) + 1)
	if size < need || len(buf) < size {
		return 0, ErrShortPacket
	}
	return size, nil
}

// wordLength converts a byte length (which must be a multiple of 4 and
// include the header) into the RTCP length field value.
func wordLength(bytes int) uint16 {
	return uint16(bytes/4 - 1)
}

// ntp32 encodes a duration since the stream epoch into the middle 32 bits of
// an NTP timestamp (16-bit seconds, 16-bit fraction), as RFC 8888 requires
// for the report timestamp. It wraps every 65536 s.
func ntp32(t time.Duration) uint32 {
	secs := uint64(t / time.Second)
	frac := uint64(t%time.Second) * 65536 / uint64(time.Second)
	return uint32(secs<<16 | frac)
}

// fromNTP32 decodes an ntp32 value back into a duration (modulo 65536 s).
func fromNTP32(v uint32) time.Duration {
	secs := time.Duration(v>>16) * time.Second
	frac := time.Duration(v&0xFFFF) * time.Second / 65536
	return secs + frac
}
