package cc

import "time"

// Bonded caps a controller's rates to the bond manager's aggregated path
// budget, so the encoder target honors both congestion control and what
// the bonded paths can actually carry under the active policy (the weakest
// live path for duplicate, the active path for failover/cheapest, the sum
// for spray). It wraps only the rate queries: feedback, send accounting
// and the send gate pass straight through, and the run harness keeps its
// type assertions (Traceable, RepairAware, controller-specific finalizers)
// on the inner controller it constructed.
type Bonded struct {
	// Inner is the wrapped congestion controller.
	Inner Controller
	// Budget returns the bond manager's current aggregate budget in
	// bits/s; non-positive values leave the inner rate uncapped.
	Budget func() float64
}

// pacingHeadroom multiplies the budget for the pacing cap so the pacer can
// drain bursts the encoder target admitted.
const pacingHeadroom = 1.5

// NewBonded wraps inner with the bond budget cap.
func NewBonded(inner Controller, budget func() float64) *Bonded {
	return &Bonded{Inner: inner, Budget: budget}
}

// OnPacketSent implements Controller.
func (b *Bonded) OnPacketSent(p SentPacket) { b.Inner.OnPacketSent(p) }

// OnFeedback implements Controller.
func (b *Bonded) OnFeedback(now time.Duration, acks []Ack) { b.Inner.OnFeedback(now, acks) }

// TargetBitrate implements Controller: the inner target capped at the
// bonded budget.
func (b *Bonded) TargetBitrate(now time.Duration) float64 {
	t := b.Inner.TargetBitrate(now)
	if cap := b.Budget(); cap > 0 && t > cap {
		return cap
	}
	return t
}

// PacingRate implements Controller: the inner pacing rate capped at the
// bonded budget plus headroom.
func (b *Bonded) PacingRate(now time.Duration) float64 {
	r := b.Inner.PacingRate(now)
	if cap := b.Budget(); cap > 0 && r > cap*pacingHeadroom {
		return cap * pacingHeadroom
	}
	return r
}

// CanSend implements Controller.
func (b *Bonded) CanSend(now time.Duration, size int) bool { return b.Inner.CanSend(now, size) }

// Name implements Controller.
func (b *Bonded) Name() string { return b.Inner.Name() + "+bond" }
