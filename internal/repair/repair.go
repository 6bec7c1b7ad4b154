// Package repair is the packet-loss repair layer: RFC 4585 Generic NACK
// feedback from the receiver answered by RFC 4588 retransmissions from the
// sender, under an RTT-adaptive retry timer with exponential backoff and a
// bounded repair budget.
//
// The layer has three parts, deliberately decoupled so each is testable on
// its own and the transport wiring stays in internal/core:
//
//   - Detector (receiver side): watches the media sequence-number stream,
//     turns gaps into pending losses once a reorder tolerance is exceeded,
//     schedules NACKs with per-loss exponential backoff derived from a
//     smoothed repair RTT, and abandons a loss after a hard retry cap —
//     at which point recovery degrades to the player's existing
//     keyframe-request (PLI) path.
//   - Cache (sender side): a retransmission store bounded by bytes and by
//     age; packets older than the player's useful repair window are never
//     worth resending, so the cache forgets them.
//   - Budget (sender side): a token bucket accruing a configured fraction
//     of the congestion controller's target rate. Every RTX byte draws
//     from it; when empty the retransmission is denied rather than
//     stealing capacity from live media. The bucket also reports its
//     recent spend rate so controllers can subtract repair traffic from
//     the encoder target (see cc.RepairAware).
//
// Determinism contract: the package draws no randomness and schedules no
// simulator events itself; all timing flows in through the caller's clock,
// so seeded runs are byte-identical at any campaign worker count.
package repair

import "time"

// Config parameterizes the repair layer. The zero value is disabled; use
// DefaultConfig (or WithDefaults on a partially filled value) for the
// calibrated values. The detector's and the cache's parameters are the
// constants below.
type Config struct {
	// Enabled arms the layer. Off by default so existing calibrated
	// campaigns are untouched.
	Enabled bool
	// TickInterval is the receiver's NACK-scheduler cadence.
	TickInterval time.Duration
	// BudgetFraction is the share of the congestion controller's target
	// rate the repair budget accrues; BudgetBurst caps the bucket (bytes).
	BudgetFraction float64
	BudgetBurst    int
}

// RtxSSRC and RtxPayloadType identify the RFC 4588 retransmission stream
// (own SSRC and sequence space, distinct payload type).
const (
	RtxSSRC        = 0x525458 // "RTX"
	RtxPayloadType = 97
)

const (
	// reorderTolerance is how many later packets must arrive after a gap
	// before the missing packet is considered lost rather than reordered.
	reorderTolerance = 2
	// nackDelay is the wait between declaring a loss and the first NACK,
	// absorbing short-scale jitter.
	nackDelay = 10 * time.Millisecond
	// initialRTT seeds the smoothed repair RTT before any NACK→RTX sample.
	initialRTT = 80 * time.Millisecond
	// minRTO floors the retry timer.
	minRTO = 20 * time.Millisecond
	// retryRTTFactor scales the smoothed RTT into the base retry timeout;
	// each further retry doubles it.
	retryRTTFactor = 1.5
	// maxRetries is the hard cap on NACKs per lost packet; when the last
	// retry timer expires unanswered the loss is abandoned.
	maxRetries = 3
	// maxPending bounds tracked losses; beyond it the oldest are abandoned
	// (an outage long enough to overflow this is keyframe territory).
	maxPending = 8192
	// cacheBytes bounds the sender's retransmission store.
	cacheBytes = 4 << 20
	// cacheAge is the player's useful repair window: jitter buffer
	// (150 ms) plus frame give-up slack (250 ms). A packet older than that
	// heals a frame the player has already skipped, so resending it only
	// taxes the recovering link; the cache forgets it.
	cacheAge = 400 * time.Millisecond
	// outageGuard is the dead-span cutoff: a gap revealed after an arrival
	// silence longer than this is an outage, not a loss burst — the
	// missing packets predate the silence, their cache entries at the
	// sender have aged out, and the frames they belong to are past
	// playout. Such gaps are abandoned wholesale to the PLI path instead
	// of NACK-chased. It matches the cache age: if the link was dead
	// longer than the sender keeps packets, chasing the span can only
	// waste NACK and RTX bytes on the recovering link.
	outageGuard = cacheAge
)

// DefaultConfig returns the calibrated repair parameters, enabled.
func DefaultConfig() Config {
	return Config{Enabled: true}.WithDefaults()
}

// WithDefaults fills every zero field with its calibrated default and
// returns the result. Enabled is left as-is.
func (c Config) WithDefaults() Config {
	if c.TickInterval == 0 {
		c.TickInterval = 10 * time.Millisecond
	}
	if c.BudgetFraction == 0 {
		c.BudgetFraction = 0.15
	}
	if c.BudgetBurst == 0 {
		// Sized to repair a full short fade in one burst: ≈80 ms of a
		// 25 Mbps stream. The outage guard keeps longer dead spans from
		// ever reaching the budget, so a generous burst cannot flood a
		// recovering link.
		c.BudgetBurst = 256 << 10
	}
	return c
}
