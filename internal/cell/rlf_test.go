package cell

import (
	"math/rand"
	"testing"
	"time"

	"rpivideo/internal/flight"
	"rpivideo/internal/obs"
)

// rlfMachine builds an urban ground machine with the given RLF config.
func rlfMachine(seed int64, rlf RLFConfig) *Machine {
	rng := rand.New(rand.NewSource(seed))
	bss := Deployment(Urban, 0, rng)
	model := NewSignalModel(Urban, bss, DefaultSignalConfigFor(Urban), rng)
	cfg := DefaultHandoverConfigFor(Urban)
	cfg.RLF = rlf
	return NewMachine(model, cfg, false, rng)
}

// driveMachine steps a machine over a ground profile for dur.
func driveMachine(m *Machine, dur time.Duration, seed int64) {
	prof := flight.GroundProfile(dur, rand.New(rand.NewSource(seed)))
	step := m.cfg.MeasurementInterval
	for now := time.Duration(0); now < dur; now += step {
		m.Step(now, prof.At(now))
	}
}

// TestRLFForcedQualityOut sets Qout above any achievable RSRP so T310 starts
// on the first post-attach measurement and must expire exactly T310 later.
func TestRLFForcedQualityOut(t *testing.T) {
	rlf := DefaultRLFConfig()
	rlf.QoutDBm = 200 // always out-of-sync
	rlf.QinDBm = 201
	m := rlfMachine(42, rlf)
	tr := obs.New(0)
	m.SetTracer(tr, obs.DirUp)
	driveMachine(m, 30*time.Second, 42)

	rlfs := m.RLFEvents()
	if len(rlfs) == 0 {
		t.Fatal("no RLF declared despite permanent out-of-sync")
	}
	first := rlfs[0]
	if first.Cause != RLFQualityOut {
		t.Errorf("first RLF cause = %v, want quality-out", first.Cause)
	}
	// Attach happens at the first step, T310 starts at the second (one
	// measurement interval in), expiry T310 later.
	wantAt := m.cfg.MeasurementInterval*2 + rlf.T310
	if first.At < rlf.T310 || first.At > wantAt+m.cfg.MeasurementInterval {
		t.Errorf("first RLF at %v, want ≈%v", first.At, wantAt)
	}
	for i, ev := range rlfs {
		if ev.Outage < rlf.ReestablishMin || ev.Outage > rlf.ReestablishMax {
			t.Errorf("RLF %d outage %v outside [%v, %v]", i, ev.Outage, rlf.ReestablishMin, rlf.ReestablishMax)
		}
		if ev.Outage > rlf.T311 {
			t.Errorf("RLF %d outage %v exceeds T311 %v", i, ev.Outage, rlf.T311)
		}
	}
	// A failure whose blackout ended within the drive has re-attached.
	if last := rlfs[len(rlfs)-1]; last.At+last.Outage < 30*time.Second-m.cfg.MeasurementInterval && m.reestablishing {
		t.Errorf("the last RLF (at %v, outage %v) never re-attached", last.At, last.Outage)
	}
	// Re-establishment is not a handover: the clean-handover statistics
	// must not have absorbed the failures.
	for _, ev := range tr.Events() {
		for _, r := range rlfs {
			if ev.Kind == obs.KindHandover && ev.T == r.At {
				t.Errorf("handover event emitted at RLF instant %v", ev.T)
			}
		}
	}
}

// TestRLFBlackoutHonoured: during the re-establishment window the machine
// reports InHandover (the link layer's interruption signal) and zero radio
// capacity.
func TestRLFBlackoutHonoured(t *testing.T) {
	rlf := DefaultRLFConfig()
	rlf.QoutDBm = 200
	rlf.QinDBm = 201
	m := rlfMachine(7, rlf)
	prof := flight.GroundProfile(30*time.Second, rand.New(rand.NewSource(7)))
	step := m.cfg.MeasurementInterval
	declared := false
	for now := time.Duration(0); now < 30*time.Second; now += step {
		m.Step(now, prof.At(now))
		if len(m.RLFEvents()) > 0 && !declared {
			declared = true
			ev := m.RLFEvents()[0]
			mid := ev.At + ev.Outage/2
			if !m.InHandover(mid) {
				t.Errorf("InHandover(%v) false mid-blackout", mid)
			}
			if got := m.RadioDegradation(mid); got != 0 {
				t.Errorf("RadioDegradation mid-blackout = %v, want 0", got)
			}
			if m.BusyUntil() != ev.At+ev.Outage {
				t.Errorf("BusyUntil = %v, want %v", m.BusyUntil(), ev.At+ev.Outage)
			}
		}
	}
	if !declared {
		t.Fatal("no RLF declared")
	}
}

// TestRLFHandoverFailure forces every handover with any HET to fail and
// checks the failures re-establish instead of completing.
func TestRLFHandoverFailure(t *testing.T) {
	rlf := DefaultRLFConfig()
	rlf.HOFailureHET = 0 // every handover qualifies
	rlf.HOFailureProb = 1
	m := rlfMachine(3, rlf)
	driveMachine(m, 3*time.Minute, 3)

	if len(m.Events()) != 0 {
		t.Errorf("%d handovers completed despite certain failure", len(m.Events()))
	}
	failures := 0
	for _, ev := range m.RLFEvents() {
		if ev.Cause == RLFHandoverFailure {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("no handover failures despite probability 1 (and no handover attempts either)")
	}
}

// TestRLFDisabledIsInert: with RLF disabled the machine must behave — and
// consume randomness — exactly as the seed build did, so calibrated runs
// stay byte-identical.
func TestRLFDisabledIsInert(t *testing.T) {
	run := func(rlf RLFConfig) ([]Event, []RLFEvent) {
		m := rlfMachine(99, rlf)
		driveMachine(m, 3*time.Minute, 99)
		return m.Events(), m.RLFEvents()
	}
	evDisabled, rlfsDisabled := run(RLFConfig{})
	if len(rlfsDisabled) != 0 {
		t.Fatalf("disabled RLF declared %d failures", len(rlfsDisabled))
	}
	evBaseline, _ := run(RLFConfig{})
	if len(evDisabled) != len(evBaseline) {
		t.Fatalf("disabled runs disagree: %d vs %d handovers", len(evDisabled), len(evBaseline))
	}
	for i := range evDisabled {
		if evDisabled[i] != evBaseline[i] {
			t.Fatalf("disabled runs diverge at handover %d: %+v vs %+v", i, evDisabled[i], evBaseline[i])
		}
	}
}

// TestRLFDeterministic: same seed, same RLF timeline.
func TestRLFDeterministic(t *testing.T) {
	run := func() []RLFEvent {
		rlf := DefaultRLFConfig()
		rlf.QoutDBm = 200
		rlf.QinDBm = 201
		m := rlfMachine(1234, rlf)
		driveMachine(m, time.Minute, 1234)
		return m.RLFEvents()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("rlf counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rlf %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
