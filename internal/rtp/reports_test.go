package rtp

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestSenderReportRoundTrip(t *testing.T) {
	sr := &SenderReport{
		SSRC:        0xAA,
		NTPTime:     90*time.Second + 123456*time.Microsecond,
		RTPTime:     90 * VideoClockRate,
		PacketCount: 1000,
		OctetCount:  1_000_000,
	}
	buf, err := sr.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf)%4 != 0 {
		t.Errorf("SR length %d not aligned", len(buf))
	}
	var g SenderReport
	if err := g.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if g.SSRC != sr.SSRC || g.RTPTime != sr.RTPTime || g.PacketCount != 1000 || g.OctetCount != 1_000_000 {
		t.Errorf("round trip: %+v", g)
	}
	if d := g.NTPTime - sr.NTPTime; d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("NTP time %v, want ≈%v", g.NTPTime, sr.NTPTime)
	}
}

func TestSenderReportRejectsWrongType(t *testing.T) {
	rr := &ReceiverReport{SSRC: 1}
	buf, err := rr.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var sr SenderReport
	if err := sr.Unmarshal(buf); err == nil {
		t.Error("SR parser accepted an RR")
	}
}

func TestReceiverReportRoundTrip(t *testing.T) {
	rr := &ReceiverReport{
		SSRC: 7,
		Blocks: []ReportBlock{{
			SSRC:             9,
			FractionLost:     25,
			CumulativeLost:   321,
			HighestSeq:       1<<16 | 55,
			Jitter:           450,
			LastSR:           0xABCD1234,
			DelaySinceLastSR: 6553,
		}},
	}
	buf, err := rr.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var g ReceiverReport
	if err := g.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 1 || g.Blocks[0] != rr.Blocks[0] || g.SSRC != 7 {
		t.Errorf("round trip: %+v", g)
	}
}

// withLength returns a copy of an RTCP packet with its length field (in
// 32-bit words minus one) and count field overwritten.
func withLength(buf []byte, words uint16, count uint8) []byte {
	out := append([]byte(nil), buf...)
	out[0] = out[0]&^0x1F | count
	out[2], out[3] = byte(words>>8), byte(words)
	return out
}

// rrDeclaring is a receiver report whose count field announces count
// blocks and whose length field declares words+1 words, followed by the
// bytes of count whole blocks whatever the length says.
func rrDeclaring(count uint8, words uint16) []byte {
	rr := &ReceiverReport{SSRC: 5, Blocks: make([]ReportBlock, count)}
	for i := range rr.Blocks {
		rr.Blocks[i] = ReportBlock{SSRC: uint32(i + 1), HighestSeq: 100}
	}
	buf, _ := rr.AppendTo(nil)
	return withLength(buf, words, count)
}

// TestReportsRespectTheirLength: the SR and RR parsers read within the
// 4*(Length+1) bytes the header declares. A body the count field needs
// beyond that is refused, even when the datagram carries its bytes; bytes
// past a sufficient declared length are ignored.
func TestReportsRespectTheirLength(t *testing.T) {
	var rr ReceiverReport
	if err := rr.Unmarshal(rrDeclaring(1, 1)); err == nil {
		t.Errorf("an RR declaring 8 bytes was parsed with its 24-byte block: %+v", rr)
	}
	if err := rr.Unmarshal(rrDeclaring(2, 7)); err == nil {
		t.Error("an RR declaring one block's length was parsed with two")
	}
	if err := rr.Unmarshal(rrDeclaring(1, 7)); err != nil || len(rr.Blocks) != 1 {
		t.Errorf("an exact one-block RR: %v, %d blocks", err, len(rr.Blocks))
	}
	if err := rr.Unmarshal(append(rrDeclaring(1, 7), 0xFF, 0xFF, 0xFF, 0xFF)); err != nil || len(rr.Blocks) != 1 {
		t.Errorf("a one-block RR followed by junk: %v, %d blocks", err, len(rr.Blocks))
	}

	srBuf, err := (&SenderReport{SSRC: 9, PacketCount: 3}).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var sr SenderReport
	for name, buf := range map[string][]byte{
		"length 0":                    withLength(srBuf, 0, 0),
		"length 5":                    withLength(srBuf, 5, 0),
		"one block announced, absent": withLength(append(srBuf, make([]byte, 24)...), 6, 1),
	} {
		if err := sr.Unmarshal(buf); err == nil {
			t.Errorf("SR %s accepted: %+v", name, sr)
		}
	}
	withBlock := withLength(append(srBuf, make([]byte, 24)...), 12, 1)
	if err := sr.Unmarshal(withBlock); err != nil || sr.SSRC != 9 || sr.PacketCount != 3 {
		t.Errorf("an SR with one report block: %v, %+v", err, sr)
	}
}

func TestReceiverReportBlockLimit(t *testing.T) {
	rr := &ReceiverReport{Blocks: make([]ReportBlock, 32)}
	if _, err := rr.AppendTo(nil); err == nil {
		t.Error("32 blocks should be rejected")
	}
}

func TestReceptionStatsLossAccounting(t *testing.T) {
	rs := NewReceptionStats(9, VideoClockRate)
	// 100 packets, drop every 10th.
	at := time.Duration(0)
	for i := 0; i < 100; i++ {
		if i%10 == 9 {
			continue
		}
		at += time.Millisecond
		rs.Record(uint16(1000+i), uint32(i*3000), at)
	}
	b := rs.Block()
	// Packet 1099's loss is not yet knowable (nothing higher arrived): 9
	// of the 10 drops are visible in this interval.
	if b.CumulativeLost != 9 {
		t.Errorf("CumulativeLost = %d, want 9", b.CumulativeLost)
	}
	wantFrac := uint8(9 * 256 / 99)
	if b.FractionLost < wantFrac-3 || b.FractionLost > wantFrac+3 {
		t.Errorf("FractionLost = %d, want ≈%d", b.FractionLost, wantFrac)
	}
	if b.HighestSeq != 1000+98 {
		t.Errorf("HighestSeq = %d", b.HighestSeq)
	}
	// A second loss-free interval: the trailing drop becomes visible
	// (cumulative 10) and the interval fraction returns near zero.
	for i := 100; i < 200; i++ {
		at += time.Millisecond
		rs.Record(uint16(1000+i), uint32(i*3000), at)
	}
	b2 := rs.Block()
	if b2.FractionLost > 3 {
		t.Errorf("interval FractionLost = %d, want ≈0", b2.FractionLost)
	}
	if b2.CumulativeLost != 10 {
		t.Errorf("CumulativeLost = %d, want 10", b2.CumulativeLost)
	}
}

func TestReceptionStatsSequenceWrap(t *testing.T) {
	rs := NewReceptionStats(9, VideoClockRate)
	rs.Record(65534, 0, time.Millisecond)
	rs.Record(65535, 3000, 2*time.Millisecond)
	rs.Record(0, 6000, 3*time.Millisecond)
	rs.Record(1, 9000, 4*time.Millisecond)
	if got := rs.ExtendedHighest(); got != 1<<16|1 {
		t.Errorf("ExtendedHighest = %#x, want %#x", got, 1<<16|1)
	}
	if b := rs.Block(); b.CumulativeLost != 0 {
		t.Errorf("loss across wrap = %d", b.CumulativeLost)
	}
}

func TestJitterZeroForPerfectTiming(t *testing.T) {
	rs := NewReceptionStats(9, VideoClockRate)
	// Packets arriving exactly in sync with their media clock.
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * 33333 * time.Microsecond
		rtpTime := uint32(float64(at) / float64(time.Second) * VideoClockRate)
		rs.Record(uint16(i), rtpTime, at)
	}
	if j := rs.Jitter(); j > time.Millisecond {
		t.Errorf("jitter = %v for perfect timing, want ≈0", j)
	}
}

func TestJitterGrowsWithVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rs := NewReceptionStats(9, VideoClockRate)
	for i := 0; i < 500; i++ {
		ideal := time.Duration(i) * 33333 * time.Microsecond
		at := ideal + time.Duration(rng.Intn(20))*time.Millisecond
		rtpTime := uint32(float64(ideal) / float64(time.Second) * VideoClockRate)
		rs.Record(uint16(i), rtpTime, at)
	}
	j := rs.Jitter()
	if j < 2*time.Millisecond || j > 30*time.Millisecond {
		t.Errorf("jitter = %v under ±20 ms arrival noise", j)
	}
}

// Property: receiver reports round-trip for arbitrary block values.
func TestPropertyReceiverReportRoundTrip(t *testing.T) {
	f := func(ssrc uint32, frac uint8, lost uint32, highest, jitter, lastSR, dlsr uint32, n uint8) bool {
		blocks := int(n % 31)
		rr := &ReceiverReport{SSRC: ssrc}
		for i := 0; i < blocks; i++ {
			rr.Blocks = append(rr.Blocks, ReportBlock{
				SSRC:             ssrc + uint32(i),
				FractionLost:     frac,
				CumulativeLost:   lost & 0xFFFFFF,
				HighestSeq:       highest,
				Jitter:           jitter,
				LastSR:           lastSR,
				DelaySinceLastSR: dlsr,
			})
		}
		buf, err := rr.AppendTo(nil)
		if err != nil {
			return false
		}
		var g ReceiverReport
		if err := g.Unmarshal(buf); err != nil {
			return false
		}
		if g.SSRC != rr.SSRC || len(g.Blocks) != blocks {
			return false
		}
		for i := range rr.Blocks {
			if g.Blocks[i] != rr.Blocks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
