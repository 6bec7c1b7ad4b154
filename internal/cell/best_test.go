package cell

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"rpivideo/internal/flight"
)

// rsrpLiteral is SignalModel's received power as it was written before Best:
// one function, the path-loss numbers as literals.
func rsrpLiteral(m *SignalModel, i int, bs BS, st flight.State) float64 {
	dx, dy := st.X-bs.X, st.Y-bs.Y
	d2 := math.Hypot(dx, dy)
	if d2 < 10 {
		d2 = 10
	}
	dz := st.Alt - bs.Height
	d3 := math.Hypot(d2, dz)
	dKm := d3 / 1000

	pLoS := 0.15
	if m.env == Rural {
		pLoS = 0.5
	}
	airness := st.Alt / 120
	if airness > 1 {
		airness = 1
	}
	pLoS += (0.95 - pLoS) * airness

	logD := math.Log10(math.Max(dKm, 0.01))
	plLoS := 103.4 + 24.2*logD
	plNLoS := 131.1 + 42.8*logD
	pl := pLoS*plLoS + (1-pLoS)*plNLoS

	elev := math.Atan2(dz, d2) * 180 / math.Pi
	off := (elev + m.cfg.DownTiltDeg) / m.cfg.VerticalHPBWDeg
	att := 12 * off * off
	if att > m.cfg.SideLobeFloorDB {
		att = m.cfg.SideLobeFloorDB
	}

	return m.cfg.TxPowerDBm - pl - att + m.shadow[i]
}

// RSRPAll advances the fading state to now and returns the received power
// (dBm) from every cell at the given UE state, reusing out: the exhaustive
// evaluation Machine.Step ran before Best, kept as Best's oracle.
func (m *SignalModel) RSRPAll(now time.Duration, st flight.State, out []float64) []float64 {
	m.advance(now, st)
	out = out[:0]
	for i, bs := range m.bss {
		out = append(out, rsrpLiteral(m, i, bs, st))
	}
	return out
}

// strongest is the scan Machine.Step ran over RSRPAll's slice: ascending,
// strict >, so the lowest index among equals; -1 on an empty map.
func strongest(rsrps []float64) int {
	if len(rsrps) == 0 {
		return -1
	}
	best := 0
	for i, v := range rsrps {
		if v > rsrps[best] {
			best = i
		}
	}
	return best
}

// stepExhaustive is Machine.Step on the exhaustive scan.
func stepExhaustive(m *Machine, now time.Duration, st flight.State, rsrps *[]float64) *Event {
	*rsrps = m.model.RSRPAll(now, st, *rsrps)
	best := strongest(*rsrps)
	if best < 0 {
		return nil
	}
	return m.decide(now, st, best, (*rsrps)[best], (*rsrps)[max(m.serving, 0)])
}

// boundTestMaps are the deployments the bound is checked on: the three
// generated shapes, and injected maps with arbitrary IDs, co-located
// duplicate sites, a single site and none.
func boundTestMaps(rng *rand.Rand) map[string]struct {
	env Environment
	bss []BS
} {
	dup := Deployment(Urban, P1, rng)[:9]
	for i := range dup {
		dup[i].ID = 1000 - 7*i
	}
	dup = append(dup, dup[2], dup[2], dup[5], BS{ID: 3, X: dup[0].X, Y: dup[0].Y, Height: 55})
	return map[string]struct {
		env Environment
		bss []BS
	}{
		"urban":    {Urban, Deployment(Urban, P1, rng)},
		"rural-p1": {Rural, Deployment(Rural, P1, rng)},
		"rural-p2": {Rural, Deployment(Rural, P2, rng)},
		"injected": {Urban, dup},
		"single":   {Rural, []BS{{ID: 42, X: 300, Y: -200, Height: 30}}},
		"empty":    {Urban, nil},
	}
}

// TestBestMatchesExhaustive walks a UE through each deployment — small
// steps, teleports beyond every reach, altitude sweeps through the 120 m
// airness clamp and the ground, passes within the 10 m horizontal clamp at
// antenna height (where the log-distance clamp sits) — with the serving cell
// and the hint changing at random, and holds Best to the exhaustive scan on
// a twin model: same winner, same two powers, bit for bit. Without
// shadowing, co-located sites tie exactly and the lowest index must win;
// without an antenna pattern the slope is the path loss's alone, and a jump
// from afar onto a site outruns it unless reach stops the bound being used.
func TestBestMatchesExhaustive(t *testing.T) {
	for name, dep := range boundTestMaps(rand.New(rand.NewSource(5))) {
		for _, radio := range []string{"default", "unshadowed", "isotropic"} {
			t.Run(name+"/"+radio, func(t *testing.T) {
				cfg := DefaultSignalConfigFor(dep.env)
				switch radio {
				case "unshadowed":
					cfg.ShadowSigmaGroundDB, cfg.ShadowSigmaAirDB = 0, 0
				case "isotropic":
					cfg.SideLobeFloorDB = 0
				}
				got := NewSignalModel(dep.env, dep.bss, cfg, rand.New(rand.NewSource(21)))
				want := NewSignalModel(dep.env, dep.bss, cfg, rand.New(rand.NewSource(21)))
				walk := rand.New(rand.NewSource(22))
				n := len(dep.bss)
				var rsrps []float64
				st := flight.State{Alt: 1.5}
				serving, hint, ties := -1, -1, 0
				for k := 0; k < 20000; k++ {
					now := time.Duration(k) * 40 * time.Millisecond
					switch r := walk.Float64(); {
					case r < 0.002: // teleport
						st.X, st.Y = (walk.Float64()-0.5)*20000, (walk.Float64()-0.5)*20000
						st.Alt = walk.Float64() * 300
					case r < 0.004 && n > 0: // onto a site, at antenna height
						bs := dep.bss[walk.Intn(n)]
						st.X, st.Y, st.Alt = bs.X+walk.Float64()*4-2, bs.Y+walk.Float64()*4-2, bs.Height+walk.Float64()*2-1
					case r < 0.3: // climb or descend, through the clamp and the ground
						st.Alt += (walk.Float64() - 0.5) * 8
						if st.Alt < -3 || st.Alt > 140 {
							st.Alt = 118 + walk.Float64()*4
						}
					default:
						st.X += (walk.Float64() - 0.5) * 3
						st.Y += (walk.Float64() - 0.5) * 3
					}
					st.Speed = walk.Float64() * 15

					best, bestV, servV := got.Best(now, st, serving, hint)
					rsrps = want.RSRPAll(now, st, rsrps)
					wantBest := strongest(rsrps)
					if best != wantBest {
						t.Fatalf("step %d at %+v (serving %d, hint %d): best %d, exhaustive scan %d", k, st, serving, hint, best, wantBest)
					}
					if n == 0 {
						continue
					}
					wantServ := rsrps[max(serving, 0)]
					if math.Float64bits(bestV) != math.Float64bits(rsrps[best]) || math.Float64bits(servV) != math.Float64bits(wantServ) {
						t.Fatalf("step %d: best power %v, serving %v; exhaustive scan %v, %v", k, bestV, servV, rsrps[best], wantServ)
					}
					for i, v := range rsrps {
						if i != best && v == rsrps[best] {
							ties++
						}
					}
					hint = best
					switch r := walk.Float64(); {
					case r < 0.02:
						serving = best
					case r < 0.03:
						serving = walk.Intn(n)
					case r < 0.032:
						serving = -1
					case r < 0.04:
						hint = walk.Intn(n+2) - 1 // anything, out of range included
					}
				}
				if name == "injected" && radio == "unshadowed" && ties == 0 {
					t.Error("co-located sites without shadowing never tied: the tie rule went untested")
				}
			})
		}
	}
}

// TestBoundHoldsWithinReach checks the bound itself, for cells that never
// get near winning: from a random evaluation point, a site's deterministic
// power anywhere within reach stays under the cached value plus slope times
// the L1 displacement. Moves straight at the site, the steepest there are,
// are half of the sample.
func TestBoundHoldsWithinReach(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, env := range []Environment{Urban, Rural} {
		for _, floor := range []float64{20, 0} {
			cfg := DefaultSignalConfigFor(env)
			cfg.SideLobeFloorDB = floor
			bs := BS{X: 120, Y: -340, Height: 30}
			m := NewSignalModel(env, []BS{bs}, cfg, rng)
			for k := 0; k < 200000; k++ {
				r := math.Pow(10, 1+rng.Float64()*3) // 10 m – 10 km from the site
				th := rng.Float64() * 2 * math.Pi
				from := flight.State{X: bs.X + r*math.Cos(th), Y: bs.Y + r*math.Sin(th), Alt: rng.Float64() * 150}
				m.eval(0, from)
				c := m.bounds[0]
				to := from
				if f := rng.Float64() * c.reach; k%2 == 0 {
					// toward the antenna, f metres of L1 at most
					to.X += (bs.X - from.X) / (3 * c.reach) * f
					to.Y += (bs.Y - from.Y) / (3 * c.reach) * f
					to.Alt += (bs.Height - from.Alt) / (3 * c.reach) * f
				} else {
					to.X += (rng.Float64() - 0.5) * 2 * f / 3
					to.Y += (rng.Float64() - 0.5) * 2 * f / 3
					to.Alt = math.Max(0, to.Alt+(rng.Float64()-0.5)*2*f/3)
				}
				disp := math.Abs(to.X-c.x) + math.Abs(to.Y-c.y) + math.Abs(to.Alt-c.alt)
				if det, _, _ := m.det(bs, to); disp < c.reach && det > c.det+c.slope*disp+boundSlack {
					t.Fatalf("%v floor %v: from %+v to %+v (%.1f m of reach %.1f): det %v above the bound %v", env, floor, from, to, disp, c.reach, det, c.det+c.slope*disp)
				}
			}
		}
	}
}

// flightMachines are the radio chains of the campaign's flights: each
// environment/operator pair under the plain, RLF and DAPS machines.
func flightMachines(f func(name string, newMachine func() *Machine)) {
	for _, dep := range []struct {
		env  Environment
		op   Operator
		qout float64 // near the flight's median serving power
	}{{Urban, P1, -57}, {Rural, P1, -78}, {Rural, P2, -69}} {
		for _, mode := range []string{"plain", "rlf", "daps"} {
			f(fmt.Sprintf("%v-%v-%s", dep.env, dep.op, mode), func() *Machine {
				rng := rand.New(rand.NewSource(31))
				model := NewSignalModel(dep.env, Deployment(dep.env, dep.op, rng), DefaultSignalConfigFor(dep.env), rng)
				cfg := DefaultHandoverConfigFor(dep.env)
				switch mode {
				case "rlf":
					cfg.RLF = DefaultRLFConfig()
					// The default Qout is never crossed on these maps; one
					// inside the flight's range makes T310 and the
					// re-establishment run.
					cfg.RLF.QoutDBm, cfg.RLF.QinDBm = dep.qout, dep.qout+4
				case "daps":
					cfg.DAPS = true
				}
				return NewMachine(model, cfg, true, rng)
			})
		}
	}
}

// TestMachineMatchesExhaustiveScan flies the standard flight twice per radio
// chain, once with Step and once with the same machine stepping on the
// exhaustive scan: every handover, every radio-link failure and the serving
// power at every measurement must be identical.
func TestMachineMatchesExhaustiveScan(t *testing.T) {
	prof := flight.StandardFlight()
	flightMachines(func(name string, newMachine func() *Machine) {
		t.Run(name, func(t *testing.T) {
			got, want := newMachine(), newMachine()
			var rsrps []float64
			for now := time.Duration(0); now < prof.Duration(); now += got.cfg.MeasurementInterval {
				st := prof.At(now)
				ev, wantEv := got.Step(now, st), stepExhaustive(want, now, st, &rsrps)
				if (ev == nil) != (wantEv == nil) || ev != nil && *ev != *wantEv {
					t.Fatalf("at %v: handover %+v, on the exhaustive scan %+v", now, ev, wantEv)
				}
				if g, w := got.ServingRSRP(), want.ServingRSRP(); math.Float64bits(g) != math.Float64bits(w) || got.Serving() != want.Serving() {
					t.Fatalf("at %v: serving cell %d at %v dBm, on the exhaustive scan %d at %v", now, got.Serving(), g, want.Serving(), w)
				}
			}
			if len(got.Events()) == 0 {
				t.Error("no handover in a whole flight")
			}
			if len(got.RLFEvents()) != len(want.RLFEvents()) {
				t.Fatalf("%d radio-link failures, on the exhaustive scan %d", len(got.RLFEvents()), len(want.RLFEvents()))
			}
			for i, r := range got.RLFEvents() {
				if r != want.RLFEvents()[i] {
					t.Errorf("radio-link failure %d: %+v, on the exhaustive scan %+v", i, r, want.RLFEvents()[i])
				}
			}
			if got.cfg.RLF.Enabled && len(got.RLFEvents()) == 0 {
				t.Error("no radio-link failure with the raised Qout: re-establishment went untested")
			}
		})
	})
}

// TestBestEvaluatesFewCells pins the pruning rate: over the standard flight
// a measurement evaluates at most 2 of a deployment's 18–32 cells exactly,
// on average (1.5–1.7: the serving cell, the last winner where it is
// another, and a challenger every few measurements). The count is a function
// of the seed alone, so a loosened bound fails here on any machine.
func TestBestEvaluatesFewCells(t *testing.T) {
	prof := flight.StandardFlight()
	flightMachines(func(name string, newMachine func() *Machine) {
		m := newMachine()
		steps := 0
		for now := time.Duration(0); now < prof.Duration(); now += m.cfg.MeasurementInterval {
			m.Step(now, prof.At(now))
			steps++
		}
		mean := float64(m.model.evals) / float64(steps)
		t.Logf("%s: %.2f of %d cells evaluated per measurement", name, mean, len(m.model.bss))
		if mean > 2 {
			t.Errorf("%s: %.2f exact evaluations per measurement, want at most 2", name, mean)
		}
	})
}

// TestNewSignalModelRejectsNonPositive: a zero beamwidth or decorrelation
// distance used to yield NaN or infinite powers that no cell search selects.
func TestNewSignalModelRejectsNonPositive(t *testing.T) {
	for name, mutate := range map[string]func(*SignalConfig){
		"zero beamwidth":        func(c *SignalConfig) { c.VerticalHPBWDeg = 0 },
		"negative beamwidth":    func(c *SignalConfig) { c.VerticalHPBWDeg = -10 },
		"NaN beamwidth":         func(c *SignalConfig) { c.VerticalHPBWDeg = math.NaN() },
		"zero decorrelation":    func(c *SignalConfig) { c.DecorrDistanceM = 0 },
		"negative decorrelaton": func(c *SignalConfig) { c.DecorrDistanceM = -150 },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultSignalConfigFor(Urban)
			mutate(&cfg)
			defer func() {
				if recover() == nil {
					t.Error("NewSignalModel accepted the configuration")
				}
			}()
			NewSignalModel(Urban, []BS{{}}, cfg, rand.New(rand.NewSource(1)))
		})
	}
}
