package repair

import "time"

// spendBin is the width of the budget's trailing spend-rate bins; four of
// them make the one-second window reported to congestion controllers.
const spendBin = 250 * time.Millisecond

// Budget is the sender-side repair token bucket. It accrues BudgetFraction
// of the congestion controller's current target rate (capped at
// BudgetBurst) and every retransmitted byte draws from it, so repair
// traffic is bounded relative to the media rate by construction: the bytes
// granted never exceed Accrued, and Accrued grows no faster than
// fraction × target plus the initial burst.
type Budget struct {
	cfg     Config
	tokens  float64
	accrued float64
	last    time.Duration

	bins [4]int
	binQ int

	// Denied counts refused retransmissions (bucket empty — the caller
	// degrades to the PLI path instead).
	Denied int
}

// NewBudget returns a bucket holding one full burst; cfg should have
// passed WithDefaults.
func NewBudget(cfg Config) *Budget {
	burst := float64(cfg.BudgetBurst)
	return &Budget{cfg: cfg, tokens: burst, accrued: burst}
}

// Allow asks to spend size bytes of repair traffic at the given target
// media rate (bits/s). It refills from elapsed time first, then grants or
// denies atomically.
func (b *Budget) Allow(now time.Duration, size int, targetRate float64) bool {
	b.refill(now, targetRate)
	if float64(size) > b.tokens {
		b.Denied++
		return false
	}
	b.tokens -= float64(size)
	b.note(now, size)
	return true
}

// Accrued returns the cumulative (uncapped) byte allowance granted so far,
// including the initial burst. The bytes granted never exceed it: the
// layer's hard invariant.
func (b *Budget) Accrued() float64 { return b.accrued }

// SpendRate returns the repair send rate in bits/s over the trailing
// one-second window — the signal congestion controllers subtract from
// their media target.
func (b *Budget) SpendRate(now time.Duration) float64 {
	b.note(now, 0)
	bytes := 0
	for _, v := range b.bins {
		bytes += v
	}
	return float64(bytes) * 8
}

func (b *Budget) refill(now time.Duration, targetRate float64) {
	if now <= b.last {
		return
	}
	dt := now - b.last
	b.last = now
	add := b.cfg.BudgetFraction * targetRate / 8 * dt.Seconds()
	if add <= 0 {
		return
	}
	b.accrued += add
	b.tokens += add
	if burst := float64(b.cfg.BudgetBurst); b.tokens > burst {
		b.tokens = burst
	}
}

func (b *Budget) note(now time.Duration, size int) {
	q := int(now / spendBin)
	if q != b.binQ {
		for i := b.binQ + 1; i <= q && i-b.binQ <= len(b.bins); i++ {
			b.bins[i%len(b.bins)] = 0
		}
		b.binQ = q
	}
	b.bins[q%len(b.bins)] += size
}
