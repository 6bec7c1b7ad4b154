package cell

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"rpivideo/internal/flight"
)

// TestRadioResetMatchesNew: one SignalModel and one Machine, Reset for each
// radio chain in turn — deployments that shrink and grow, both
// environments, injected IDs, the plain, RLF and DAPS machines — fly the
// standard flight as a new model and machine built from the same seed do,
// step for step: every event, the serving cell, both powers, the radio's
// degradation and the number of exact evaluations, which a bound left by
// another map's cells would change. The reused storage is not grown again
// for a map that fits in it.
func TestRadioResetMatchesNew(t *testing.T) {
	type chain struct {
		env  Environment
		op   Operator
		ids  bool    // renumber the sites, as an injected fleet map may
		qout float64 // Qout near the flight's median serving power; 0 = no RLF
		daps bool
	}
	chains := []chain{
		{env: Rural, op: P1},
		{env: Urban, op: P1, qout: -57},
		{env: Rural, op: P2, qout: -69},
		{env: Urban, op: P2, ids: true, daps: true},
		{env: Rural, op: P1, qout: -78},
		{env: Urban, op: P1},
	}
	build := func(c chain, seed int64, model *SignalModel, m *Machine) (*SignalModel, *Machine) {
		rng := rand.New(rand.NewSource(seed))
		bss := Deployment(c.env, c.op, rng)
		if c.ids {
			for i := range bss {
				bss[i].ID = 900 - 3*i
			}
		}
		cfg := DefaultHandoverConfigFor(c.env)
		if c.qout != 0 {
			cfg.RLF = DefaultRLFConfig()
			cfg.RLF.QoutDBm, cfg.RLF.QinDBm = c.qout, c.qout+4
		}
		cfg.DAPS = c.daps
		if model == nil {
			model = NewSignalModel(c.env, bss, DefaultSignalConfigFor(c.env), rng)
			return model, NewMachine(model, cfg, true, rng)
		}
		model.Reset(c.env, bss, DefaultSignalConfigFor(c.env), rng)
		m.Reset(model, cfg, true, rng)
		return model, m
	}
	prof := flight.StandardFlight()
	var model SignalModel
	var reused Machine
	rlfs := 0
	for i, c := range chains {
		name := fmt.Sprintf("chain %d (%v-%v)", i, c.env, c.op)
		seed := int64(50 + i)
		freshModel, fresh := build(c, seed, nil, nil)
		if i > 0 && len(freshModel.bss) <= cap(model.shadow) {
			keep := &model.shadow[:1][0]
			if build(c, seed, &model, &reused); &model.shadow[0] != keep {
				t.Errorf("%s: Reset grew the storage of a model with room for %d cells", name, len(freshModel.bss))
			}
		} else {
			build(c, seed, &model, &reused)
		}
		for now := time.Duration(0); now <= prof.Duration(); now += fresh.cfg.MeasurementInterval {
			st := prof.At(now)
			got, want := reused.Step(now, st), fresh.Step(now, st)
			if (got == nil) != (want == nil) || got != nil && *got != *want {
				t.Fatalf("%s at %v: reused machine's event %v, a new one's %v", name, now, got, want)
			}
			if reused.Serving() != fresh.Serving() || reused.ServingCellID() != fresh.ServingCellID() ||
				reused.ServingRSRP() != fresh.ServingRSRP() || reused.best != fresh.best ||
				reused.RadioDegradation(now) != fresh.RadioDegradation(now) || model.evals != freshModel.evals {
				t.Fatalf("%s at %v: reused machine serves %d (%v dBm, best %d, degradation %v, %d evaluations), a new one %d (%v dBm, best %d, degradation %v, %d evaluations)",
					name, now, reused.Serving(), reused.ServingRSRP(), reused.best, reused.RadioDegradation(now), model.evals,
					fresh.Serving(), fresh.ServingRSRP(), fresh.best, fresh.RadioDegradation(now), freshModel.evals)
			}
		}
		if !slices.Equal(reused.Events(), fresh.Events()) || !slices.Equal(reused.RLFEvents(), fresh.RLFEvents()) {
			t.Errorf("%s: the reused machine recorded %d handovers and %d failures, a new one %d and %d",
				name, len(reused.Events()), len(reused.RLFEvents()), len(fresh.Events()), len(fresh.RLFEvents()))
		}
		if len(fresh.Events()) == 0 {
			t.Errorf("%s: no handover on the flight", name)
		}
		rlfs += len(fresh.RLFEvents())
	}
	if rlfs == 0 {
		t.Error("no radio-link failure on any chain: nothing checks that Reset forgets them")
	}
}
