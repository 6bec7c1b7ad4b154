package cell

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"rpivideo/internal/flight"
	"rpivideo/internal/metrics"
)

// runMobility drives a handover machine over a mobility profile and returns
// the machine.
func runMobility(t *testing.T, env Environment, op Operator, air bool, seed int64) *Machine {
	t.Helper()
	m, _ := runMobilityTimed(t, env, op, air, seed)
	return m
}

// runMobilityTimed is runMobility that also returns the instant of each
// handover in m.Events().
func runMobilityTimed(t *testing.T, env Environment, op Operator, air bool, seed int64) (*Machine, []time.Duration) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bss := Deployment(env, op, rng)
	model := NewSignalModel(env, bss, DefaultSignalConfigFor(env), rng)
	m := NewMachine(model, DefaultHandoverConfigFor(Urban), air, rng)
	var prof flight.Profile
	if air {
		prof = flight.StandardFlight()
	} else {
		prof = flight.GroundProfile(6*time.Minute, rng)
	}
	var at []time.Duration
	step := DefaultHandoverConfigFor(Urban).MeasurementInterval
	for now := time.Duration(0); now < prof.Duration(); now += step {
		if m.Step(now, prof.At(now)) != nil {
			at = append(at, now)
		}
	}
	return m, at
}

// hoRate returns handovers per second over n seeded runs.
func hoRate(t *testing.T, env Environment, op Operator, air bool, runs int) float64 {
	t.Helper()
	total := 0
	var dur time.Duration
	for s := 0; s < runs; s++ {
		m := runMobility(t, env, op, air, int64(1000+s))
		total += len(m.Events())
		if air {
			dur += flight.StandardFlight().Duration()
		} else {
			dur += 6 * time.Minute
		}
	}
	return float64(total) / dur.Seconds()
}

func TestDeploymentShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	urban := Deployment(Urban, P1, rng)
	if len(urban) != 32 {
		t.Errorf("urban cells = %d, want 32 (paper connected to 32)", len(urban))
	}
	ruralP1 := Deployment(Rural, P1, rng)
	if len(ruralP1) != 18 {
		t.Errorf("rural P1 cells = %d, want 18", len(ruralP1))
	}
	ruralP2 := Deployment(Rural, P2, rng)
	if len(ruralP2) <= len(ruralP1) {
		t.Errorf("rural P2 should be denser than P1: %d vs %d", len(ruralP2), len(ruralP1))
	}
	// Urban sites concentrated, rural sites spread far.
	maxUrban, maxRural := 0.0, 0.0
	for _, b := range urban {
		if d := hyp(b.X, b.Y); d > maxUrban {
			maxUrban = d
		}
	}
	for _, b := range ruralP1 {
		if d := hyp(b.X, b.Y); d > maxRural {
			maxRural = d
		}
	}
	if maxRural < 2*maxUrban {
		t.Errorf("rural spread (%v) should far exceed urban (%v)", maxRural, maxUrban)
	}
}

func hyp(x, y float64) float64 {
	return math.Hypot(x, y)
}

func TestSignalDistanceMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bss := []BS{{ID: 0, X: 0, Y: 0, Height: 30}}
	cfg := DefaultSignalConfigFor(Urban)
	cfg.ShadowSigmaGroundDB = 0
	cfg.ShadowSigmaAirDB = 0
	m := NewSignalModel(Urban, bss, cfg, rng)
	near := m.RSRPAll(0, flight.State{X: 200, Alt: 1.5}, nil)[0]
	far := m.RSRPAll(time.Second, flight.State{X: 2000, Alt: 1.5}, nil)[0]
	if near <= far {
		t.Errorf("RSRP near (%v) should exceed far (%v)", near, far)
	}
}

func TestAltitudeEntersSideLobe(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bss := []BS{{ID: 0, X: 0, Y: 0, Height: 30}}
	cfg := DefaultSignalConfigFor(Urban)
	cfg.ShadowSigmaGroundDB = 0
	cfg.ShadowSigmaAirDB = 0
	m := NewSignalModel(Urban, bss, cfg, rng)
	// Directly overhead at altitude the UE is far above boresight: the
	// pattern attenuation must cap at the side-lobe floor, not below it.
	v := m.RSRPAll(0, flight.State{X: 50, Alt: 120}, nil)[0]
	vGround := m.RSRPAll(time.Second, flight.State{X: 300, Alt: 1.5}, nil)[0]
	if v < vGround-25 {
		t.Errorf("overhead RSRP %v vs ground %v: side-lobe floor should bound the loss", v, vGround)
	}
}

func TestHOFrequencyAirVsGround(t *testing.T) {
	const runs = 6
	airUrban := hoRate(t, Urban, P1, true, runs)
	grdUrban := hoRate(t, Urban, P1, false, runs)
	airRural := hoRate(t, Rural, P1, true, runs)
	grdRural := hoRate(t, Rural, P1, false, runs)
	t.Logf("HO/s: air urban %.3f, grd urban %.3f, air rural %.3f, grd rural %.3f",
		airUrban, grdUrban, airRural, grdRural)

	if airUrban < 5*grdUrban {
		t.Errorf("air urban (%.3f) should be ≈an order of magnitude above ground (%.3f)", airUrban, grdUrban)
	}
	if airRural < 4*grdRural {
		t.Errorf("air rural (%.3f) should be far above ground (%.3f)", airRural, grdRural)
	}
	if airUrban <= airRural {
		t.Errorf("urban air HO rate (%.3f) should exceed rural (%.3f)", airUrban, airRural)
	}
	if airUrban < 0.08 || airUrban > 0.5 {
		t.Errorf("air urban rate %.3f outside the paper's plausible band [0.08, 0.5]", airUrban)
	}
	if grdUrban > 0.06 {
		t.Errorf("ground urban rate %.3f too high", grdUrban)
	}
}

func TestHETDistribution(t *testing.T) {
	var air, grd metrics.Dist
	for s := 0; s < 8; s++ {
		for _, ev := range runMobility(t, Urban, P1, true, int64(100+s)).Events() {
			air.Add(ev.HET.Seconds() * 1000)
		}
		for _, ev := range runMobility(t, Urban, P1, false, int64(100+s)).Events() {
			grd.Add(ev.HET.Seconds() * 1000)
		}
	}
	if air.N() < 30 {
		t.Fatalf("only %d air handovers sampled", air.N())
	}
	t.Logf("HET air: %v", air.Box())
	t.Logf("HET grd: %v", grd.Box())
	// Majority below the 49.5 ms 3GPP success threshold.
	if air.FracBelow(49.5) < 0.6 {
		t.Errorf("only %.0f%% of air HETs below 49.5 ms, want a clear majority", 100*air.FracBelow(49.5))
	}
	// Air must show outliers above 500 ms; the maximum stays ≤ 4 s.
	if air.Max() < 500 {
		t.Errorf("air HET max = %.0f ms, want long outliers (paper: up to 4 s)", air.Max())
	}
	if air.Max() > 4000+1 {
		t.Errorf("air HET max = %.0f ms, exceeds the 4 s cap", air.Max())
	}
	if grd.N() > 0 && grd.Max() > 1000 {
		t.Errorf("ground HET max = %.0f ms, the excessive outliers belong to the air", grd.Max())
	}
}

// TestRuralPingPongs counts returns to the previous cell within 5 s of
// leaving it.
func TestRuralPingPongs(t *testing.T) {
	pp := 0
	for s := 0; s < 10; s++ {
		m, at := runMobilityTimed(t, Rural, P1, true, int64(500+s))
		evs := m.Events()
		for i := 1; i < len(evs); i++ {
			if evs[i].To == evs[i-1].From && at[i]-at[i-1] < 5*time.Second {
				pp++
			}
		}
	}
	if pp == 0 {
		t.Error("no ping-pong handovers in rural flights; the paper observed them")
	}
}

func TestP2MoreRuralHandovers(t *testing.T) {
	const runs = 6
	p1 := hoRate(t, Rural, P1, true, runs)
	p2 := hoRate(t, Rural, P2, true, runs)
	t.Logf("rural air HO/s: P1 %.3f, P2 %.3f", p1, p2)
	if p2 <= p1 {
		t.Errorf("P2 (denser rural deployment) should hand over more: P2 %.3f vs P1 %.3f", p2, p1)
	}
}

func TestMachineBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	bss := Deployment(Urban, P1, rng)
	model := NewSignalModel(Urban, bss, DefaultSignalConfigFor(Urban), rng)
	m := NewMachine(model, DefaultHandoverConfigFor(Urban), true, rng)
	if m.Serving() != -1 {
		t.Errorf("serving before first step = %d", m.Serving())
	}
	m.Step(0, flight.State{})
	if m.Serving() < 0 {
		t.Error("no serving cell after first measurement")
	}
	if 0 < m.Link.BusyUntil {
		t.Error("in handover before any event")
	}
}

func TestHandoverInterruptsLink(t *testing.T) {
	// Drive until a handover happens, then verify the busy window.
	rng := rand.New(rand.NewSource(11))
	bss := Deployment(Urban, P1, rng)
	model := NewSignalModel(Urban, bss, DefaultSignalConfigFor(Urban), rng)
	m := NewMachine(model, DefaultHandoverConfigFor(Urban), true, rng)
	prof := flight.StandardFlight()
	step := 40 * time.Millisecond
	for now := time.Duration(0); now < prof.Duration(); now += step {
		if ev := m.Step(now, prof.At(now)); ev != nil {
			if now+ev.HET/2 >= m.Link.BusyUntil {
				t.Error("link not interrupted during HET")
			}
			if now+ev.HET+time.Millisecond < m.Link.BusyUntil {
				t.Error("link still interrupted after HET")
			}
			return
		}
	}
	t.Fatal("no handover occurred in a full urban flight")
}

func TestDeterminism(t *testing.T) {
	a := runMobility(t, Urban, P1, true, 42)
	b := runMobility(t, Urban, P1, true, 42)
	if len(a.Events()) != len(b.Events()) {
		t.Fatalf("same seed produced %d vs %d handovers", len(a.Events()), len(b.Events()))
	}
	for i := range a.Events() {
		if a.Events()[i] != b.Events()[i] {
			t.Fatalf("event %d differs between same-seed runs", i)
		}
	}
}
