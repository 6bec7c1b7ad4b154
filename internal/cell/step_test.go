package cell

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"rpivideo/internal/flight"
)

// advancePerCellSqrt is SignalModel.advance as it was before the kick was
// hoisted: sigma*math.Sqrt(2*rate) evaluated once per cell.
func advancePerCellSqrt(m *SignalModel, now time.Duration, st flight.State) {
	if !m.init {
		m.init = true
		m.last = now
		return
	}
	dt := (now - m.last).Seconds()
	if dt <= 0 {
		return
	}
	m.last = now
	airness := st.Alt / 120
	if airness > 1 {
		airness = 1
	}
	sigma := m.cfg.ShadowSigmaGroundDB + (m.cfg.ShadowSigmaAirDB-m.cfg.ShadowSigmaGroundDB)*airness
	tau := m.cfg.ShadowTauGround.Seconds() + (m.cfg.ShadowTauAir.Seconds()-m.cfg.ShadowTauGround.Seconds())*airness
	if tau < 0.5 {
		tau = 0.5
	}
	rate := dt/tau + dt*st.Speed/m.cfg.DecorrDistanceM
	if rate > 1 {
		rate = 1
	}
	for i := range m.shadow {
		m.shadow[i] += -m.shadow[i]*rate + sigma*math.Sqrt(2*rate)*m.rng.NormFloat64()
	}
}

// TestAdvanceMatchesPerCellSqrt runs the shadowing of a whole flight and a
// ground run through both forms, from the same seed: every cell's state
// must stay bit-identical at every measurement.
func TestAdvanceMatchesPerCellSqrt(t *testing.T) {
	for _, env := range []Environment{Urban, Rural} {
		for _, air := range []bool{true, false} {
			model := func() *SignalModel {
				rng := rand.New(rand.NewSource(11))
				return NewSignalModel(env, Deployment(env, P1, rng), DefaultSignalConfigFor(env), rng)
			}
			got, want := model(), model()
			var prof flight.Profile = flight.StandardFlight()
			if !air {
				prof = flight.GroundProfile(6*time.Minute, rand.New(rand.NewSource(12)))
			}
			for now := time.Duration(0); now < prof.Duration(); now += 100 * time.Millisecond {
				st := prof.At(now)
				got.advance(now, st)
				advancePerCellSqrt(want, now, st)
				for i := range got.shadow {
					if math.Float64bits(got.shadow[i]) != math.Float64bits(want.shadow[i]) {
						t.Fatalf("%v air=%v at %v: cell %d shadow %v, per-cell form %v", env, air, now, i, got.shadow[i], want.shadow[i])
					}
				}
			}
		}
	}
}

// cruisingMachine is a handover machine of the given environment with a UAV
// cruising level at 80 m, and the function that takes it one measurement
// interval further along the leap and back.
func cruisingMachine(env Environment) (step func()) {
	rng := rand.New(rand.NewSource(3))
	model := NewSignalModel(env, Deployment(env, P1, rng), DefaultSignalConfigFor(env), rng)
	cfg := DefaultHandoverConfigFor(env)
	m := NewMachine(model, cfg, true, rng)
	now, x, dir := time.Duration(0), 0.0, 1.0
	return func() {
		now += cfg.MeasurementInterval
		if x += dir * 3.6 * cfg.MeasurementInterval.Seconds(); x > 200 || x < 0 {
			dir = -dir
		}
		m.Step(now, flight.State{X: x, Alt: 80, Speed: 3.6})
	}
}

// BenchmarkMachineStep is one RRC measurement of a run: the shadowing of
// every cell advanced, the strongest cell found, the A3 condition and the
// handover state machine.
func BenchmarkMachineStep(b *testing.B) {
	for _, env := range []Environment{Urban, Rural} {
		b.Run(env.String(), func(b *testing.B) {
			step := cruisingMachine(env)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// TestMachineStepAllocatesNothing: a measurement writes only the model's
// per-cell state; only a handover's event record ever allocates, amortized
// to nothing over the steps between handovers.
func TestMachineStepAllocatesNothing(t *testing.T) {
	for _, env := range []Environment{Urban, Rural} {
		step := cruisingMachine(env)
		for i := 0; i < 200; i++ {
			step()
		}
		if n := testing.AllocsPerRun(3000, step); n != 0 {
			t.Errorf("%v: Machine.Step allocates %.2f times per measurement, want 0", env, n)
		}
	}
}
