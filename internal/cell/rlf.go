package cell

import "time"

// RLFConfig parameterizes the radio-link-failure model (3GPP TS 36.331
// §5.3.11): when the serving-cell quality stays below Qout for T310 the UE
// declares RLF, searches for a suitable cell (bounded by T311) and runs the
// RRC re-establishment exchange — a multi-second total blackout, unlike the
// tens-of-milliseconds gap of a clean handover. Botched handovers (the HET
// outliers of §4.1) can fail outright and take the same path.
type RLFConfig struct {
	// Enabled arms the model. Disabled machines consume no extra
	// randomness, so existing seeded runs are unchanged.
	Enabled bool
	// QoutDBm: serving RSRP below this starts (or keeps running) T310.
	QoutDBm float64
	// QinDBm: serving RSRP above this stops T310 (hysteresis between the
	// two avoids flapping on measurement noise).
	QinDBm float64
	// T310 is how long the out-of-sync condition must persist before the
	// UE declares RLF.
	T310 time.Duration
	// T311 bounds the post-RLF cell search; the sampled blackout below
	// never exceeds it.
	T311 time.Duration
	// ReestablishMin/Max bound the total service blackout (cell search
	// plus the RRC re-establishment exchange), sampled uniformly.
	// ReestablishMax should not exceed T311.
	ReestablishMin time.Duration
	ReestablishMax time.Duration
	// HOFailureHET is the execution time at or above which a handover
	// risks failing outright; HOFailureProb is that risk. Failed handovers
	// re-establish instead of completing (DAPS handovers never fail this
	// way — the source leg stays up).
	HOFailureHET  time.Duration
	HOFailureProb float64
}

// DefaultRLFConfig returns LTE-typical RLF parameters: Qout/Qin around the
// bottom of the usable RSRP range, T310 = 1 s, T311 = 3 s, and blackouts
// of 1.2–3 s matching the paper's multi-second outage discussion (§5).
func DefaultRLFConfig() RLFConfig {
	return RLFConfig{
		Enabled:        true,
		QoutDBm:        -120,
		QinDBm:         -116,
		T310:           time.Second,
		T311:           3 * time.Second,
		ReestablishMin: 1200 * time.Millisecond,
		ReestablishMax: 3 * time.Second,
		HOFailureHET:   500 * time.Millisecond,
		HOFailureProb:  0.5,
	}
}

// RLFCause classifies a radio-link failure.
type RLFCause int

// RLF causes.
const (
	// RLFQualityOut is a T310 expiry: serving quality below Qout too long.
	RLFQualityOut RLFCause = iota
	// RLFHandoverFailure is a handover that failed during execution.
	RLFHandoverFailure
)

// String implements fmt.Stringer.
func (c RLFCause) String() string {
	if c == RLFHandoverFailure {
		return "handover-failure"
	}
	return "quality-out"
}

// RLFEvent is one declared radio-link failure.
type RLFEvent struct {
	// At is when the failure was declared.
	At time.Duration
	// Cause is why.
	Cause RLFCause
	// Outage is the full service blackout: cell search plus the RRC
	// re-establishment exchange.
	Outage time.Duration
	// From is the ID of the serving cell the link failed on.
	From int
}

// RLFEvents returns all radio-link failures declared so far.
func (m *Machine) RLFEvents() []RLFEvent { return m.rlfs }

// monitorRLF runs the T310 supervision on the serving-cell RSRP at one
// measurement instant, declaring RLF on expiry. It reports whether a
// failure was declared now.
func (m *Machine) monitorRLF(now time.Duration) bool {
	cfg := m.cfg.RLF
	rsrp := m.servV
	switch {
	case rsrp < cfg.QoutDBm:
		if !m.t310Running {
			m.t310Running = true
			m.t310Since = now
			return false
		}
		if now-m.t310Since >= cfg.T310 {
			m.declareRLF(now, RLFQualityOut)
			return true
		}
	case rsrp > cfg.QinDBm:
		m.t310Running = false
	}
	return false
}

// declareRLF starts the re-establishment blackout: the radio goes silent
// (BusyUntil, which the link layer already honours) for the sampled cell-
// search-plus-re-establishment time, after which Step re-attaches to the
// strongest cell without emitting a handover event.
func (m *Machine) declareRLF(now time.Duration, cause RLFCause) {
	cfg := m.cfg.RLF
	out := cfg.ReestablishMin
	if span := cfg.ReestablishMax - cfg.ReestablishMin; span > 0 {
		out += time.Duration(m.rng.Float64() * float64(span))
	}
	if cfg.T311 > 0 && out > cfg.T311 {
		out = cfg.T311
	}
	m.Link.BusyUntil = now + out
	m.reestablishing = true
	m.t310Running = false
	m.Link.Candidate = false
	// The target cell settles after re-establishment just as it does after
	// a handover: reuse the post-HO degradation window.
	m.Link.LastHO = true
	m.rlfs = append(m.rlfs, RLFEvent{At: now, Cause: cause, Outage: out, From: m.model.CellID(m.serving)})
}
