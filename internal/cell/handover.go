package cell

import (
	"math"
	"math/rand"
	"time"

	"rpivideo/internal/flight"
	"rpivideo/internal/obs"
)

// HandoverConfig parameterizes the A3-event handover machine.
type HandoverConfig struct {
	// HysteresisDB is the A3 offset a neighbour must exceed.
	HysteresisDB float64
	// TimeToTrigger is how long the A3 condition must hold.
	TimeToTrigger time.Duration
	// MeasurementInterval is the RRC measurement cadence.
	MeasurementInterval time.Duration
	// PreHOFactor and PostHOFactor are the capacity multipliers applied
	// while a handover is pending and while the target cell settles — the
	// §4.2.2 latency-spike mechanism. PostHOWindow bounds the latter.
	PreHOFactor  float64
	PostHOFactor float64
	PostHOWindow time.Duration
	// DAPS enables the Dual Active Protocol Stack handover of 3GPP
	// Release 16 that §5 discusses: make-before-break link establishment.
	// The UE keeps the source cell active until the target is up, so the
	// execution gap disappears and the degradation around handovers is
	// largely masked by the second leg.
	DAPS bool
	// RLF arms the radio-link-failure model (rlf.go). The zero value
	// disables it.
	RLF RLFConfig
}

// DefaultHandoverConfigFor returns the calibrated parameters for an
// environment. The urban radio deteriorates more sharply around handovers
// (dense interference); the open rural environment degrades more mildly.
func DefaultHandoverConfigFor(env Environment) HandoverConfig {
	cfg := HandoverConfig{
		HysteresisDB:        3,
		TimeToTrigger:       256 * time.Millisecond,
		MeasurementInterval: 40 * time.Millisecond,
		PreHOFactor:         0.40,
		PostHOFactor:        0.60,
		PostHOWindow:        600 * time.Millisecond,
	}
	if env == Rural {
		cfg.PreHOFactor = 0.50
		cfg.PostHOFactor = 0.70
	}
	return cfg
}

// Machine is the handover state machine of one UE.
type Machine struct {
	cfg    HandoverConfig
	model  *SignalModel
	rng    *rand.Rand
	midair bool // whether this run is an aerial one (HET tail selection)

	serving    int
	haveLastHO bool

	candidate      int
	candidateSince time.Duration
	haveCandidate  bool

	busyUntil time.Duration // in-progress handover or re-establishment window

	// Radio-link-failure supervision (rlf.go).
	t310Running    bool
	t310Since      time.Duration
	reestablishing bool
	rlfs           []RLFEvent

	events []Event

	// The last measurement: the strongest cell (next search's hint) and
	// the serving cell's received power.
	best  int
	servV float64

	// Tracing (nil = disabled). Purely observational — see internal/obs.
	trace    *obs.Tracer
	traceDir obs.Dir
}

// NewMachine returns a handover machine attached to a signal model. air
// selects the aerial HET outlier distribution (§4.1: the excessive outliers
// up to 4 s occur almost exclusively in the air).
func NewMachine(model *SignalModel, cfg HandoverConfig, air bool, rng *rand.Rand) *Machine {
	m := new(Machine)
	m.Reset(model, cfg, air, rng)
	return m
}

// Reset makes m the machine NewMachine builds from the same arguments, with
// no handover or radio-link failure recorded and no tracer, and keeps the
// storage its event lists grew. The run that used m before must be
// finished, and nothing may hold what Events or RLFEvents returned.
func (m *Machine) Reset(model *SignalModel, cfg HandoverConfig, air bool, rng *rand.Rand) {
	*m = Machine{cfg: cfg, model: model, rng: rng, midair: air, serving: -1, best: -1,
		events: m.events[:0], rlfs: m.rlfs[:0]}
}

// SetTracer attaches an event tracer (nil disables tracing). dir labels the
// link direction this machine serves.
func (m *Machine) SetTracer(tr *obs.Tracer, dir obs.Dir) {
	m.trace = tr
	m.traceDir = dir
}

// Serving returns the current serving cell's *deployment index* (-1 before
// the first measurement) — the position in the SignalModel's cell slice,
// which is what fleet contention keys on. SignalModel.CellID maps it to the
// externally meaningful base-station ID.
func (m *Machine) Serving() int { return m.serving }

// Events returns all completed handover events so far.
func (m *Machine) Events() []Event { return m.events }

// InHandover reports whether the link is interrupted by an in-progress
// handover execution at time now.
func (m *Machine) InHandover(now time.Duration) bool { return now < m.busyUntil }

// BusyUntil returns the end of the current handover execution window (zero
// when none has occurred).
func (m *Machine) BusyUntil() time.Duration { return m.busyUntil }

// RadioDegradation returns the capacity multiplier the radio imposes at
// time now: 0 during handover execution, a deep degradation while a
// handover is pending (the §4.2.2 pre-HO latency spike), a partial one
// while the target cell settles, and 1 otherwise. With DAPS the second
// active leg masks most of the degradation.
func (m *Machine) RadioDegradation(now time.Duration) float64 {
	if m.cfg.DAPS {
		switch {
		case m.haveCandidate &&
			now-m.candidateSince >= m.cfg.TimeToTrigger/2 &&
			now-m.candidateSince < 4*m.cfg.TimeToTrigger:
			return 0.85
		case m.haveLastHO && now < m.busyUntil+m.cfg.PostHOWindow:
			return 0.9
		default:
			return 1
		}
	}
	switch {
	case m.InHandover(now):
		return 0
	case m.haveCandidate &&
		now-m.candidateSince >= m.cfg.TimeToTrigger/2 &&
		now-m.candidateSince < 4*m.cfg.TimeToTrigger:
		// Only established-but-fresh candidates degrade the link deeply:
		// momentary flickers (age < TTT/2) are measurement noise, and
		// candidates that linger without triggering are marginal-signal
		// conditions, not imminent handovers. The paper's spikes start
		// ≈0.5 s before handovers and last ≈1 s (§4.2.2).
		return m.cfg.PreHOFactor
	case m.haveLastHO && now < m.busyUntil+m.cfg.PostHOWindow:
		return m.cfg.PostHOFactor
	default:
		return 1
	}
}

// ServingRSRP returns the most recent serving-cell received power.
func (m *Machine) ServingRSRP() float64 {
	if m.serving < 0 {
		return math.Inf(-1)
	}
	return m.servV
}

// Step performs one RRC measurement at time now and UE state st, returning
// a non-nil Event when a handover triggers.
func (m *Machine) Step(now time.Duration, st flight.State) *Event {
	best, bestV, servV := m.model.Best(now, st, m.serving, m.best)
	return m.decide(now, st, best, bestV, servV)
}

// decide runs the state machine on one measurement's outcome: the strongest
// cell, its received power and the serving cell's.
func (m *Machine) decide(now time.Duration, st flight.State, best int, bestV, servV float64) *Event {
	if best < 0 {
		return nil
	}
	m.best, m.servV = best, servV
	if m.serving < 0 {
		m.serving, m.servV = best, bestV
		return nil
	}
	if m.reestablishing {
		if m.InHandover(now) {
			m.haveCandidate = false
			return nil
		}
		// Re-establishment blackout over: attach to the strongest cell.
		// RRC re-establishment is not a handover, so no Event is emitted
		// and HET statistics stay clean-handover-only.
		m.reestablishing = false
		m.serving, m.servV = best, bestV
	}
	// No measurements act while the previous handover is executing.
	if m.InHandover(now) {
		m.haveCandidate = false
		return nil
	}
	if m.cfg.RLF.Enabled && m.monitorRLF(now) {
		return nil
	}
	if best == m.serving || bestV <= m.servV+m.cfg.HysteresisDB {
		m.haveCandidate = false
		return nil
	}
	if !m.haveCandidate || m.candidate != best {
		m.candidate = best
		m.candidateSince = now
		m.haveCandidate = true
		return nil
	}
	if now-m.candidateSince < m.cfg.TimeToTrigger {
		return nil
	}
	// A3 condition held for TTT: execute the handover. With DAPS the
	// source link stays active while the target comes up: no execution
	// gap interrupts the data path.
	het := m.sampleHET(st)
	if m.cfg.DAPS {
		het = 0
	}
	// A pathological execution time risks losing both cells mid-handover:
	// the UE then declares RLF and re-establishes instead of completing
	// the handover (§4.1's worst HET outliers; never under DAPS, whose
	// source leg stays up).
	if m.cfg.RLF.Enabled && !m.cfg.DAPS && m.cfg.RLF.HOFailureProb > 0 &&
		het >= m.cfg.RLF.HOFailureHET && m.rng.Float64() < m.cfg.RLF.HOFailureProb {
		m.declareRLF(now, RLFHandoverFailure)
		return nil
	}
	// Events report base-station IDs; the machine's own bookkeeping stays
	// in deployment indices (ping-pong detection compares indices).
	ev := Event{From: m.model.CellID(m.serving), To: m.model.CellID(best), HET: het}
	m.serving, m.servV = best, bestV
	m.haveLastHO = true
	m.busyUntil = now + het
	m.haveCandidate = false
	m.events = append(m.events, ev)
	if m.trace != nil {
		m.trace.Emit(obs.Event{T: now, Kind: obs.KindHandover, Dir: m.traceDir,
			Seq: int64(ev.From), Aux: int64(ev.To), V: float64(het) / float64(time.Millisecond)})
	}
	return &m.events[len(m.events)-1]
}

// sampleHET draws one Handover Execution Time. The bulk is log-normal with
// a median near 30 ms so the majority stays below the 49.5 ms 3GPP success
// threshold (§4.1); outliers are rare and bounded on the ground but heavy-
// tailed in the air, reaching ≈4 s (Fig. 4b).
func (m *Machine) sampleHET(st flight.State) time.Duration {
	inAir := m.midair && st.Alt > 5
	outlierP := 0.03
	if inAir {
		outlierP = 0.08
	}
	if m.rng.Float64() >= outlierP {
		// Bulk: log-normal, median 30 ms, σ≈0.35 → P95 ≈ 53 ms.
		het := 30e-3 * math.Exp(m.rng.NormFloat64()*0.35)
		return time.Duration(het * float64(time.Second))
	}
	if !inAir {
		// Ground outliers: 60–600 ms.
		return time.Duration(60+m.rng.Float64()*540) * time.Millisecond
	}
	// Air outliers: Pareto tail from 60 ms, capped at 4 s.
	u := m.rng.Float64()
	het := 0.06 * math.Pow(1-u, -1/1.1)
	if het > 4 {
		het = 4
	}
	return time.Duration(het * float64(time.Second))
}
