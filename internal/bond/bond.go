// Package bond implements dual-operator link bonding: one flight attached
// to both operator networks at once, with a per-path health monitor, a
// pluggable packet scheduler, and a receiver-side reorder buffer.
//
// The paper measured two operators (P1/P2) but only ever streamed over one;
// its §5 reliability argument — and the AQUILA line of work on resilient
// long-range UAV links — is that the robustness win comes from *bonding*
// both, so an RLF or coverage outage on one operator degrades the stream
// gracefully while the other carries it. The package supplies the three
// pieces the core harness wires together:
//
//   - Monitor state inside Manager: per-path EWMAs of delivery RTT and
//     loss (fed TWCC-style from per-packet delivery/loss outcomes), outage
//     detection fed by the radio chain's RLF/handover/scripted-fault
//     signals, and an up/down hysteresis state machine so paths do not
//     flap (downAfterTicks consecutive unhealthy ticks to go down, a
//     probationTicks clean streak to come back).
//
//   - Scheduler: the routing policy. Four are provided — duplicate (every
//     packet on every live path), failover (primary plus hot standby,
//     switch on health breach, switch back after the primary's
//     probation), cheapest (send on the currently best path, probe the
//     other at low rate) and spray (weighted packet striping across live
//     paths).
//
//   - Reorder: a bounded receiver-side reorder buffer with a deadline, so
//     packets striped across paths of different latency re-serialize
//     without unbounded latency (reorder.go).
//
// Everything in the package is deterministic: no randomness is drawn, all
// state advances from explicit observations and clock ticks, so a bonded
// run remains a pure function of (Config, Seed) and campaigns stay
// byte-identical at any worker count.
package bond

import "time"

// NumPaths is the number of bonded radio chains (the paper's two
// operators).
const NumPaths = 2

// Policy selects the bonding scheduler.
type Policy int

// Policies.
const (
	// PolicyNone disables bonding (single-path run).
	PolicyNone Policy = iota
	// PolicyDuplicate sends every media packet on every live path; the
	// receiver keeps the first copy. Maximum robustness, ~2x overhead.
	PolicyDuplicate
	// PolicyFailover sends on the primary path with the secondary as a hot
	// standby: a health breach switches the stream over, and the primary
	// is switched back only after its probation clears.
	PolicyFailover
	// PolicyCheapest sends on the currently healthiest (lowest-score)
	// path and probes the other at low rate.
	PolicyCheapest
	// PolicySpray stripes packets across live paths, weighted by each
	// path's delivered-rate estimate; the receiver re-serializes through
	// the reorder buffer.
	PolicySpray
)

// String implements fmt.Stringer; the strings are the CLI policy names.
func (p Policy) String() string {
	switch p {
	case PolicyDuplicate:
		return "duplicate"
	case PolicyFailover:
		return "failover"
	case PolicyCheapest:
		return "cheapest"
	case PolicySpray:
		return "spray"
	default:
		return "none"
	}
}

// Policies lists the four active scheduling policies in comparison order.
func Policies() []Policy {
	return []Policy{PolicyDuplicate, PolicyFailover, PolicyCheapest, PolicySpray}
}

// Config arms link bonding. The zero value disables it. The health
// monitor's parameters and the probe cadence are the constants below.
type Config struct {
	// Policy selects the scheduler; PolicyNone disables bonding.
	Policy Policy
	// ReorderDeadline bounds how long the receiver's reorder buffer holds
	// a packet waiting for a gap to fill before releasing past it (60 ms
	// when zero). The duplicate policy delivers first-copy and skips the
	// buffer entirely.
	ReorderDeadline time.Duration
	// ReorderCap bounds the reorder buffer in packets (256 when zero);
	// overflow force-releases the oldest run.
	ReorderCap int
}

// Enabled reports whether bonding is armed.
func (c Config) Enabled() bool { return c.Policy != PolicyNone }

// WithDefaults resolves zero fields to the calibrated defaults.
func (c Config) WithDefaults() Config {
	if c.ReorderDeadline <= 0 {
		c.ReorderDeadline = 60 * time.Millisecond
	}
	if c.ReorderCap <= 0 {
		c.ReorderCap = 256
	}
	return c
}

const (
	// probeEvery duplicates every N-th media packet onto each path the
	// scheduler is not currently using, keeping the idle paths' health
	// estimates warm at bounded (1/N) overhead. Failover, cheapest and
	// spray use it; duplicate has no idle paths.
	probeEvery = 16
	// healthAlpha is the EWMA weight of each new delivery-RTT/loss
	// observation.
	healthAlpha = 0.05
	// lossDown is the loss-EWMA fraction above which a path counts as
	// unhealthy.
	lossDown = 0.12
	// lossUp is the loss-EWMA fraction below which a down path counts as
	// healthy again — lower than lossDown so the state machine has
	// hysteresis.
	lossUp = 0.05
	// downAfterTicks is how many consecutive unhealthy ticks declare the
	// path down.
	downAfterTicks = 2
	// probationTicks is the clean streak a down path must show before it
	// is readmitted (at the 50 ms tick, 500 ms).
	probationTicks = 10
	// rateAlpha is the EWMA weight of each tick's delivered-rate sample.
	rateAlpha = 0.3
	// rateHeadroom multiplies the delivered-rate EWMA into the path's send
	// budget: the bonded target may exceed what the path has recently
	// proven by this factor, which is what lets the rate ramp.
	rateHeadroom = 1.25
	// minPathBudget floors a live path's budget in bits/s so an idle
	// standby still admits a restart after failover.
	minPathBudget = 1.5e6
)

// PathSet is a bitmask of path indices a packet is routed to.
type PathSet uint8

// Has reports whether path i is in the set.
func (s PathSet) Has(i int) bool { return s&(1<<uint(i)) != 0 }

// with returns the set with path i added.
func (s PathSet) with(i int) PathSet { return s | 1<<uint(i) }

// Count returns the number of paths in the set.
func (s PathSet) Count() int {
	n := 0
	for i := 0; i < NumPaths; i++ {
		if s.Has(i) {
			n++
		}
	}
	return n
}

// DownCause explains a path-down declaration.
type DownCause int

// Down causes.
const (
	// CauseOutage is a service interruption reported by the radio chain
	// (RLF re-establishment, handover execution or a scripted window).
	CauseOutage DownCause = iota
	// CauseLoss is a delivery-loss EWMA breach with service nominally up.
	CauseLoss
)

// String implements fmt.Stringer.
func (c DownCause) String() string {
	if c == CauseLoss {
		return "loss"
	}
	return "outage"
}

// EventKind classifies a bonding event.
type EventKind int

// Event kinds.
const (
	// EventPathDown is a path declared unhealthy.
	EventPathDown EventKind = iota
	// EventPathUp is a path readmitted after probation.
	EventPathUp
	// EventFailover is the active path switching.
	EventFailover
)

// Event is one bonding decision, surfaced to the harness for tracing.
type Event struct {
	At   time.Duration
	Kind EventKind
	// Path is the path going down or up (EventPathDown/EventPathUp).
	Path int
	// Cause explains an EventPathDown.
	Cause DownCause
	// DownFor is how long the path was down (EventPathUp).
	DownFor time.Duration
	// From and To are the previous and new active path (EventFailover).
	From, To int
}
