package rtp

import (
	"encoding/binary"
	"fmt"
	"time"
)

// RTCP packet types for sender/receiver reports (RFC 3550 §6.4).
const (
	TypeSenderReport   = 200
	TypeReceiverReport = 201
)

// SenderReport is an RFC 3550 sender report (sender info only; report
// blocks ride in ReceiverReports in this pipeline).
type SenderReport struct {
	SSRC uint32
	// NTPTime is the sender's wall clock at report generation, relative to
	// the stream epoch (full 64-bit NTP resolution on the wire).
	NTPTime time.Duration
	// RTPTime is the media clock corresponding to NTPTime.
	RTPTime uint32
	// PacketCount and OctetCount are the cumulative sender counters.
	PacketCount uint32
	OctetCount  uint32
}

const senderReportSize = rtcpHeaderSize + 24

// AppendTo appends the serialized report to dst.
func (sr *SenderReport) AppendTo(dst []byte) ([]byte, error) {
	out, buf := appendZeros(dst, senderReportSize)
	hdr := rtcpHeader{Fmt: 0, Type: TypeSenderReport, Length: wordLength(senderReportSize)}
	if err := hdr.marshalTo(buf); err != nil {
		return dst, err
	}
	binary.BigEndian.PutUint32(buf[4:], sr.SSRC)
	secs := uint64(sr.NTPTime / time.Second)
	frac := uint64(sr.NTPTime%time.Second) << 32 / uint64(time.Second)
	binary.BigEndian.PutUint32(buf[8:], uint32(secs))
	binary.BigEndian.PutUint32(buf[12:], uint32(frac))
	binary.BigEndian.PutUint32(buf[16:], sr.RTPTime)
	binary.BigEndian.PutUint32(buf[20:], sr.PacketCount)
	binary.BigEndian.PutUint32(buf[24:], sr.OctetCount)
	return out, nil
}

// Unmarshal parses a sender report. The length its header declares must
// hold the sender info and the report blocks its count announces (which
// are skipped).
func (sr *SenderReport) Unmarshal(buf []byte) error {
	var hdr rtcpHeader
	if err := hdr.unmarshal(buf); err != nil {
		return err
	}
	if hdr.Type != TypeSenderReport {
		return fmt.Errorf("rtp: not a sender report (pt=%d)", hdr.Type)
	}
	if _, err := declaredSize(hdr, buf, senderReportSize+24*int(hdr.Fmt)); err != nil {
		return err
	}
	sr.SSRC = binary.BigEndian.Uint32(buf[4:])
	secs := time.Duration(binary.BigEndian.Uint32(buf[8:])) * time.Second
	frac := time.Duration(uint64(binary.BigEndian.Uint32(buf[12:])) * uint64(time.Second) >> 32)
	sr.NTPTime = secs + frac
	sr.RTPTime = binary.BigEndian.Uint32(buf[16:])
	sr.PacketCount = binary.BigEndian.Uint32(buf[20:])
	sr.OctetCount = binary.BigEndian.Uint32(buf[24:])
	return nil
}

// ReportBlock is one RFC 3550 reception report block.
type ReportBlock struct {
	SSRC uint32
	// FractionLost is the loss fraction since the previous report, in
	// 1/256 units.
	FractionLost uint8
	// CumulativeLost is the total packets lost (24-bit on the wire).
	CumulativeLost uint32
	// HighestSeq is the extended highest sequence number received.
	HighestSeq uint32
	// Jitter is the RFC 3550 §A.8 interarrival jitter estimate in RTP
	// timestamp units.
	Jitter uint32
	// LastSR and DelaySinceLastSR support sender-side RTT computation
	// (middle-32 NTP format and 1/65536 s units respectively).
	LastSR           uint32
	DelaySinceLastSR uint32
}

// ReceiverReport is an RFC 3550 receiver report with one block per source.
type ReceiverReport struct {
	SSRC   uint32
	Blocks []ReportBlock
}

// AppendTo appends the serialized report to dst.
func (rr *ReceiverReport) AppendTo(dst []byte) ([]byte, error) {
	if len(rr.Blocks) > 31 {
		return dst, fmt.Errorf("rtp: %d report blocks exceeds the 5-bit count", len(rr.Blocks))
	}
	size := rtcpHeaderSize + 4 + 24*len(rr.Blocks)
	out, buf := appendZeros(dst, size)
	hdr := rtcpHeader{Fmt: uint8(len(rr.Blocks)), Type: TypeReceiverReport, Length: wordLength(size)}
	if err := hdr.marshalTo(buf); err != nil {
		return dst, err
	}
	binary.BigEndian.PutUint32(buf[4:], rr.SSRC)
	off := 8
	for _, b := range rr.Blocks {
		binary.BigEndian.PutUint32(buf[off:], b.SSRC)
		buf[off+4] = b.FractionLost
		buf[off+5] = byte(b.CumulativeLost >> 16)
		buf[off+6] = byte(b.CumulativeLost >> 8)
		buf[off+7] = byte(b.CumulativeLost)
		binary.BigEndian.PutUint32(buf[off+8:], b.HighestSeq)
		binary.BigEndian.PutUint32(buf[off+12:], b.Jitter)
		binary.BigEndian.PutUint32(buf[off+16:], b.LastSR)
		binary.BigEndian.PutUint32(buf[off+20:], b.DelaySinceLastSR)
		off += 24
	}
	return out, nil
}

// Unmarshal parses a receiver report. The length its header declares must
// hold the report blocks its count announces. It refills Blocks in place,
// so a ReceiverReport unmarshalled into repeatedly stops allocating.
func (rr *ReceiverReport) Unmarshal(buf []byte) error {
	var hdr rtcpHeader
	if err := hdr.unmarshal(buf); err != nil {
		return err
	}
	if hdr.Type != TypeReceiverReport {
		return fmt.Errorf("rtp: not a receiver report (pt=%d)", hdr.Type)
	}
	count := int(hdr.Fmt)
	if _, err := declaredSize(hdr, buf, rtcpHeaderSize+4+24*count); err != nil {
		return err
	}
	rr.SSRC = binary.BigEndian.Uint32(buf[4:])
	rr.Blocks = rr.Blocks[:0]
	off := 8
	for i := 0; i < count; i++ {
		b := ReportBlock{
			SSRC:             binary.BigEndian.Uint32(buf[off:]),
			FractionLost:     buf[off+4],
			CumulativeLost:   uint32(buf[off+5])<<16 | uint32(buf[off+6])<<8 | uint32(buf[off+7]),
			HighestSeq:       binary.BigEndian.Uint32(buf[off+8:]),
			Jitter:           binary.BigEndian.Uint32(buf[off+12:]),
			LastSR:           binary.BigEndian.Uint32(buf[off+16:]),
			DelaySinceLastSR: binary.BigEndian.Uint32(buf[off+20:]),
		}
		rr.Blocks = append(rr.Blocks, b)
		off += 24
	}
	return nil
}

// ReceptionStats maintains the receiver-side statistics behind receiver
// reports: extended highest sequence, cumulative/interval loss and the
// RFC 3550 §A.8 interarrival jitter estimator.
type ReceptionStats struct {
	SSRC      uint32
	ClockRate int

	started     bool
	baseSeq     uint16
	cycles      uint32
	maxSeq      uint16
	received    uint64
	expectedPre uint64 // at the previous report
	receivedPre uint64

	jitter   float64 // RTP timestamp units
	lastRTP  uint32
	lastRecv time.Duration
	hasPrev  bool
}

// NewReceptionStats returns statistics for one media source.
func NewReceptionStats(ssrc uint32, clockRate int) *ReceptionStats {
	if clockRate <= 0 {
		clockRate = VideoClockRate
	}
	return &ReceptionStats{SSRC: ssrc, ClockRate: clockRate}
}

// Record ingests one media packet.
func (rs *ReceptionStats) Record(seq uint16, rtpTime uint32, at time.Duration) {
	if !rs.started {
		rs.started = true
		rs.baseSeq = seq
		rs.maxSeq = seq
	} else if seqLess(rs.maxSeq, seq) {
		if seq < rs.maxSeq { // wrapped
			rs.cycles += 1 << 16
		}
		rs.maxSeq = seq
	}
	rs.received++

	// Interarrival jitter (RFC 3550 §A.8): J += (|D| − J) / 16, where D is
	// the difference of relative transit times in timestamp units.
	if rs.hasPrev {
		arrivalTicks := float64(at) / float64(time.Second) * float64(rs.ClockRate)
		prevTicks := float64(rs.lastRecv) / float64(time.Second) * float64(rs.ClockRate)
		d := (arrivalTicks - prevTicks) - (float64(rtpTime) - float64(rs.lastRTP))
		if d < 0 {
			d = -d
		}
		rs.jitter += (d - rs.jitter) / 16
	}
	rs.hasPrev = true
	rs.lastRTP = rtpTime
	rs.lastRecv = at
}

// ExtendedHighest returns the extended highest sequence number received.
func (rs *ReceptionStats) ExtendedHighest() uint32 {
	return rs.cycles | uint32(rs.maxSeq)
}

// expected returns the number of packets expected so far.
func (rs *ReceptionStats) expected() uint64 {
	if !rs.started {
		return 0
	}
	return uint64(rs.ExtendedHighest()) - uint64(rs.baseSeq) + 1
}

// Jitter returns the current interarrival jitter as a duration.
func (rs *ReceptionStats) Jitter() time.Duration {
	return time.Duration(rs.jitter / float64(rs.ClockRate) * float64(time.Second))
}

// Block produces the reception report block for the next receiver report
// and rolls the interval counters.
func (rs *ReceptionStats) Block() ReportBlock {
	expected := rs.expected()
	lost := int64(expected) - int64(rs.received)
	if lost < 0 {
		lost = 0
	}
	expInt := expected - rs.expectedPre
	recvInt := rs.received - rs.receivedPre
	var fraction uint8
	if expInt > 0 && expInt > recvInt {
		fraction = uint8((expInt - recvInt) * 256 / expInt)
	}
	rs.expectedPre = expected
	rs.receivedPre = rs.received
	return ReportBlock{
		SSRC:           rs.SSRC,
		FractionLost:   fraction,
		CumulativeLost: uint32(lost) & 0xFFFFFF,
		HighestSeq:     rs.ExtendedHighest(),
		Jitter:         uint32(rs.jitter),
	}
}
