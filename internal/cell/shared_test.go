package cell

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"rpivideo/internal/flight"
	"rpivideo/internal/obs"
)

const testEpoch = 100 * time.Millisecond

// twoCells is a shared map with deliberately non-index IDs, so any place
// that leaks a deployment index instead of a BS ID fails loudly.
func twoCells() []BS {
	return []BS{
		{ID: 7, X: 0, Y: 0, Height: 30},
		{ID: 42, X: 10000, Y: 0, Height: 30},
	}
}

func TestContendLoneUAVFullRate(t *testing.T) {
	tl := make([]AttachSample, 20)
	for k := range tl {
		tl[k] = AttachSample{Cell: 0, RSRP: -70}
	}
	ct := Contend([][]AttachSample{tl}, twoCells(), SchedRR, 0.25, testEpoch, true)
	for k, sh := range ct.Shares[0] {
		if sh != 1 {
			t.Fatalf("lone UAV share at epoch %d = %v, want exactly 1", k, sh)
		}
	}
	if ct.MinShare != 1 || ct.OverloadEpochs != 0 || ct.PeakUsers != 1 {
		t.Errorf("lone UAV contention = min %v, overload %d, peak %d; want 1, 0, 1", ct.MinShare, ct.OverloadEpochs, ct.PeakUsers)
	}
	if ct.Attaches != 1 || ct.Detaches != 0 {
		t.Errorf("attaches/detaches = %d/%d, want 1/0", ct.Attaches, ct.Detaches)
	}
	if len(ct.Events) != 1 || ct.Events[0].Kind != obs.KindCellAttach || ct.Events[0].Aux != 7 {
		t.Errorf("events = %+v, want one attach to cell ID 7", ct.Events)
	}
}

// TestContendStatsAndEvents hand-drives two UEs through a shared pair of
// cells and checks shares, stats and the event timeline report BS IDs.
func TestContendStatsAndEvents(t *testing.T) {
	// UE0: cell 0 for all 4 epochs. UE1: unattached, cell 0, cell 0, cell 1.
	tls := [][]AttachSample{
		{{0, -70}, {0, -70}, {0, -70}, {0, -70}},
		{{-1, math.Inf(-1)}, {0, -70}, {0, -70}, {1, -80}},
	}
	ct := Contend(tls, twoCells(), SchedRR, 0.25, testEpoch, true)

	wantShares := [][]float64{
		{1, 0.5, 0.5, 1},
		{1, 0.5, 0.5, 1}, // epoch 0 unattached → neutral share 1; epoch 3 lone on cell 1
	}
	for u := range wantShares {
		for k, want := range wantShares[u] {
			if got := ct.Shares[u][k]; got != want {
				t.Errorf("share[%d][%d] = %v, want %v", u, k, got, want)
			}
		}
	}
	if ct.Attaches != 3 || ct.Detaches != 1 {
		t.Errorf("attaches/detaches = %d/%d, want 3/1", ct.Attaches, ct.Detaches)
	}
	if ct.Cells[0].Cell != 7 || ct.Cells[1].Cell != 42 {
		t.Fatalf("cell stats carry %d/%d, want BS IDs 7/42", ct.Cells[0].Cell, ct.Cells[1].Cell)
	}
	if ct.Cells[0].PeakUsers != 2 || ct.Cells[1].PeakUsers != 1 {
		t.Errorf("cell stats = %+v", ct.Cells)
	}
	// Six user-epochs, two of them at share 1 and four at 1/2: a mean of 2/3.
	if n, mean := ct.ShareHist.N(), ct.ShareHist.Mean(); n != 7 || math.Abs(mean-5.0/7.0) > 1e-12 {
		t.Errorf("granted shares: %d user-epochs, mean %v; want 7 (cell 0's six and cell 1's one), mean 5/7", n, mean)
	}

	// Event timeline: attach(UE0→7)@0, attach(UE1→7)@e1, detach(UE1,7) and
	// attach(UE1→42)@e3, all reporting BS IDs.
	type edge struct {
		kind obs.Kind
		seq  int64
		aux  int64
		at   time.Duration
	}
	want := []edge{
		{obs.KindCellAttach, 0, 7, 0},
		{obs.KindCellAttach, 1, 7, testEpoch},
		{obs.KindCellDetach, 1, 7, 3 * testEpoch},
		{obs.KindCellAttach, 1, 42, 3 * testEpoch},
	}
	if len(ct.Events) != len(want) {
		t.Fatalf("got %d events %+v, want %d", len(ct.Events), ct.Events, len(want))
	}
	for i, w := range want {
		ev := ct.Events[i]
		if ev.Kind != w.kind || ev.Seq != w.seq || ev.Aux != w.aux || ev.T != w.at {
			t.Errorf("event %d = %+v, want %+v", i, ev, w)
		}
	}
	if ct.ShareHist.N() != 7 { // 7 attached user-epochs
		t.Errorf("share hist count = %d, want 7", ct.ShareHist.N())
	}
}

func TestContendOverload(t *testing.T) {
	// Five UEs camp on cell 0 for 3 epochs; all but UE0 leave afterwards.
	// RR share 0.2 < 0.25 ⇒ the first 3 epochs are overloaded.
	tls := make([][]AttachSample, 5)
	for u := range tls {
		tls[u] = make([]AttachSample, 5)
		for k := range tls[u] {
			if k >= 3 && u != 0 {
				tls[u][k] = AttachSample{Cell: -1, RSRP: math.Inf(-1)}
			} else {
				tls[u][k] = AttachSample{Cell: 0, RSRP: -70}
			}
		}
	}
	ct := Contend(tls, twoCells(), SchedRR, 0.25, testEpoch, true)
	if ct.OverloadEpochs != 3 || ct.Cells[0].OverloadEpochs != 3 {
		t.Errorf("overload epochs = %d (cell: %d), want 3", ct.OverloadEpochs, ct.Cells[0].OverloadEpochs)
	}
	if ct.PeakUsers != 5 || ct.MinShare != 0.2 {
		t.Errorf("peak %d min-share %v, want 5 and 0.2", ct.PeakUsers, ct.MinShare)
	}
	var start, end int
	for _, ev := range ct.Events {
		switch ev.Kind {
		case obs.KindCellOverloadStart:
			start++
			if ev.Seq != 7 || ev.Aux != 5 || ev.V != 0.2 {
				t.Errorf("overload-start = %+v, want cell 7, 5 users, min share 0.2", ev)
			}
		case obs.KindCellOverloadEnd:
			end++
			if ev.Seq != 7 {
				t.Errorf("overload-end on cell %d, want 7", ev.Seq)
			}
			if ev.T != 3*testEpoch {
				t.Errorf("overload-end at %v, want %v", ev.T, 3*testEpoch)
			}
		}
	}
	if start != 1 || end != 1 {
		t.Errorf("overload transitions = %d starts, %d ends, want 1/1", start, end)
	}
}

// TestContendConservationRandomized is the invariant battery over random
// fleets: regroup the emitted shares per cell per epoch and check the PRB
// conservation sum, the lone-UE identity and the neutral unattached share.
func TestContendConservationRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cells := []BS{{ID: 3}, {ID: 11}, {ID: 29}, {ID: 31}}
	for trial := 0; trial < 50; trial++ {
		nUE := 1 + rng.Intn(24)
		nEp := 1 + rng.Intn(30)
		tls := make([][]AttachSample, nUE)
		for u := range tls {
			tls[u] = make([]AttachSample, nEp)
			cur := rng.Intn(len(cells)+1) - 1 // -1 = starts unattached
			for k := range tls[u] {
				if rng.Float64() < 0.1 {
					cur = rng.Intn(len(cells)+1) - 1
				}
				if cur < 0 {
					tls[u][k] = AttachSample{Cell: -1, RSRP: math.Inf(-1)}
				} else {
					tls[u][k] = AttachSample{Cell: cur, RSRP: -110 + rng.Float64()*60}
				}
			}
		}
		for _, kind := range []SchedulerKind{SchedRR, SchedPF} {
			ct := Contend(tls, cells, kind, 0.25, testEpoch, false)
			for k := 0; k < nEp; k++ {
				sums := make([]float64, len(cells))
				users := make([]int, len(cells))
				for u := 0; u < nUE; u++ {
					c := tls[u][k].Cell
					sh := ct.Shares[u][k]
					if c < 0 {
						if sh != 1 {
							t.Fatalf("trial %d %v: unattached UE %d epoch %d share %v, want 1", trial, kind, u, k, sh)
						}
						continue
					}
					if sh <= 0 || sh > 1 {
						t.Fatalf("trial %d %v: share[%d][%d] = %v outside (0,1]", trial, kind, u, k, sh)
					}
					sums[c] += sh
					users[c]++
				}
				for c := range sums {
					if sums[c] > 1+1e-9 {
						t.Fatalf("trial %d %v: cell %d epoch %d shares sum to %v > 1", trial, kind, c, k, sums[c])
					}
					if users[c] == 1 && sums[c] != 1 {
						t.Fatalf("trial %d %v: lone UE on cell %d epoch %d got %v, want exactly 1", trial, kind, c, k, sums[c])
					}
				}
			}
		}
	}
}

// zeroShadowConfig strips all randomness from the signal model so handover
// geometry is exactly the path-loss geometry.
func zeroShadowConfig() SignalConfig {
	cfg := DefaultSignalConfigFor(Urban)
	cfg.ShadowSigmaGroundDB = 0
	cfg.ShadowSigmaAirDB = 0
	return cfg
}

// TestHandoverEventsReportCellIDs is the regression test for the latent
// single-user assumption the fleet refactor fixed: handover events used to
// report rsrps slice indices, which only coincide with cell IDs for
// privately drawn deployments. With an injected shared map whose IDs are
// not 0..n-1, From/To must still be the BS IDs.
func TestHandoverEventsReportCellIDs(t *testing.T) {
	bss := twoCells()
	rng := rand.New(rand.NewSource(5))
	model := NewSignalModel(Urban, bss, zeroShadowConfig(), rng)
	m := NewMachine(model, DefaultHandoverConfigFor(Urban), false, rng)

	// Teleport the UE from on top of cell index 0 (ID 7) to on top of cell
	// index 1 (ID 42): the A3 condition holds immediately and fires after
	// the time-to-trigger.
	pos := func(now time.Duration) flight.State {
		if now < time.Second {
			return flight.State{X: 0, Y: 50}
		}
		return flight.State{X: 10000, Y: 50}
	}
	for now := time.Duration(0); now < 5*time.Second; now += m.cfg.MeasurementInterval {
		m.Step(now, pos(now))
	}
	evs := m.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d handover events, want 1", len(evs))
	}
	if evs[0].From != 7 || evs[0].To != 42 {
		t.Errorf("handover From/To = %d/%d, want BS IDs 7/42", evs[0].From, evs[0].To)
	}
	if m.Serving() != 1 {
		t.Errorf("Serving() = %d, want deployment index 1", m.Serving())
	}
	if id := m.model.CellID(m.serving); id != 42 {
		t.Errorf("serving cell ID = %d, want 42", id)
	}
}

// TestRLFEventsReportCellIDs: same regression for the RLF path — the
// serving cell of every failure must be a BS ID, not an index.
func TestRLFEventsReportCellIDs(t *testing.T) {
	bss := twoCells()
	rng := rand.New(rand.NewSource(5))
	model := NewSignalModel(Urban, bss, zeroShadowConfig(), rng)
	cfg := DefaultHandoverConfigFor(Urban)
	cfg.RLF = DefaultRLFConfig()
	cfg.RLF.QoutDBm = 200 // always out-of-sync
	cfg.RLF.QinDBm = 201
	m := NewMachine(model, cfg, false, rng)

	for now := time.Duration(0); now < 30*time.Second; now += cfg.MeasurementInterval {
		m.Step(now, flight.State{X: 0, Y: 50})
	}
	// The UE stays camped next to cell ID 7, so every re-establishment
	// re-attaches there and the next failure leaves it again.
	for i, ev := range m.RLFEvents() {
		if ev.From != 7 {
			t.Errorf("RLF %d leaves cell %d, want BS ID 7", i, ev.From)
		}
	}
	if n := len(m.RLFEvents()); n < 2 {
		t.Fatalf("%d RLFs declared, want at least 2", n)
	}
}
