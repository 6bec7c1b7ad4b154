package cell

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"rpivideo/internal/flight"
)

// driveToHandover steps a machine until its first handover and returns the
// machine, the handover's onset and its execution time.
func driveToHandover(t *testing.T, seed int64) (m *Machine, at, het time.Duration) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bss := Deployment(Urban, P1, rng)
	model := NewSignalModel(Urban, bss, DefaultSignalConfigFor(Urban), rng)
	m = NewMachine(model, DefaultHandoverConfigFor(Urban), true, rng)
	prof := flight.StandardFlight()
	for now := time.Duration(0); now < prof.Duration(); now += 40 * time.Millisecond {
		if ev := m.Step(now, prof.At(now)); ev != nil {
			return m, now, ev.HET
		}
	}
	t.Fatal("no handover in a full urban flight")
	return nil, 0, 0
}

func TestRadioDegradationStates(t *testing.T) {
	m, at, het := driveToHandover(t, 21)
	// During execution: zero capacity.
	if got := m.RadioDegradation(at + het/2); got != 0 {
		t.Errorf("degradation during HET = %v, want 0", got)
	}
	// Just after execution: the post-HO settling factor.
	cfg := DefaultHandoverConfigFor(Urban)
	post := m.RadioDegradation(at + het + cfg.PostHOWindow/2)
	if post != cfg.PostHOFactor {
		t.Errorf("post-HO degradation = %v, want %v", post, cfg.PostHOFactor)
	}
	// Long after: full capacity (no candidate pending in this instant is
	// not guaranteed, so only check the window bound).
	if m.RadioDegradation(at+het+cfg.PostHOWindow+time.Minute) == cfg.PostHOFactor {
		t.Error("post-HO factor persisted beyond its window")
	}
}

func TestEnvDegradationDefaults(t *testing.T) {
	u := DefaultHandoverConfigFor(Urban)
	r := DefaultHandoverConfigFor(Rural)
	if u.PreHOFactor >= r.PreHOFactor {
		t.Errorf("urban pre-HO degradation (%v) must be deeper than rural (%v)", u.PreHOFactor, r.PreHOFactor)
	}
	if u.PostHOFactor >= r.PostHOFactor {
		t.Errorf("urban post-HO degradation (%v) must be deeper than rural (%v)", u.PostHOFactor, r.PostHOFactor)
	}
	if DefaultHandoverConfigFor(Urban) != u {
		t.Error("the urban calibration should be one value")
	}
}

func TestServingRSRP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bss := Deployment(Urban, P1, rng)
	model := NewSignalModel(Urban, bss, DefaultSignalConfigFor(Urban), rng)
	m := NewMachine(model, DefaultHandoverConfigFor(Urban), true, rng)
	if !math.IsInf(m.ServingRSRP(), -1) {
		t.Error("RSRP before first measurement should be -inf")
	}
	m.Step(0, flight.State{})
	got := m.ServingRSRP()
	if got > 0 || got < -160 {
		t.Errorf("serving RSRP = %v dBm, implausible", got)
	}
}

func TestEventStringers(t *testing.T) {
	if Urban.String() != "urban" || Rural.String() != "rural" {
		t.Error("environment stringer")
	}
	if P1.String() != "P1" || P2.String() != "P2" {
		t.Error("operator stringer")
	}
}
