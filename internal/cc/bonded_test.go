package cc

import (
	"testing"
	"time"
)

// TestBondedCaps: the decorator caps target and pacing at the budget (with
// pacing headroom) and passes everything else through.
func TestBondedCaps(t *testing.T) {
	inner := &Static{Rate: 10e6}
	budget := 4e6
	b := &Bonded{Inner: inner, Budget: func() float64 { return budget }}
	if got := b.TargetBitrate(0); got != 4e6 {
		t.Errorf("capped target = %v, want 4e6", got)
	}
	if got := b.PacingRate(0); got != 6e6 {
		t.Errorf("capped pacing = %v, want budget*1.5 = 6e6", got)
	}
	budget = 50e6 // budget above the inner rate: no cap
	if got := b.TargetBitrate(0); got != 10e6 {
		t.Errorf("uncapped target = %v, want inner 10e6", got)
	}
	if got := b.PacingRate(0); got != inner.PacingRate(0) {
		t.Errorf("uncapped pacing = %v, want inner %v", got, inner.PacingRate(0))
	}
	budget = 0 // non-positive: uncapped
	if got := b.TargetBitrate(0); got != 10e6 {
		t.Errorf("zero-budget target = %v, want inner 10e6", got)
	}
	if !b.CanSend(0, 1200) {
		t.Error("CanSend must pass through")
	}
	b.OnPacketSent(SentPacket{Size: 1200})
	b.OnFeedback(time.Second, nil)
}
