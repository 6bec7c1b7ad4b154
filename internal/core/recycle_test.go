package core

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
	"rpivideo/internal/metrics"
	"rpivideo/internal/obs"
	"rpivideo/internal/rtp"
)

// registrySink is a StatusSink that keeps every registry it observes as its
// JSON.
type registrySink struct {
	mu   sync.Mutex
	regs []string
}

func (s *registrySink) ObserveRun(reg *obs.Registry) {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		panic(err)
	}
	s.mu.Lock()
	s.regs = append(s.regs, buf.String())
	s.mu.Unlock()
}

func (s *registrySink) PublishStatus(obs.StatusSnapshot) {}

// sorted returns the observed registries in sorted order: the sink sees runs
// in completion order, which depends on the scheduling.
func (s *registrySink) sorted() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := slices.Clone(s.regs)
	slices.Sort(out)
	return out
}

// TestFleetRecycledResultsMatchFresh: a fleet whose phase-3 Results are
// recycled — each built on one an earlier UAV's fold was done with — exports
// the bytes of a fleet whose every UAV builds a new Result, at one worker
// and at two. The StatusSink, which the executor calls before the fold,
// observes exactly the registries of the fresh runs: the fold, which gives
// each Result back, is handed it only once it has been observed. The
// faulted, handing-over fleet fills every event list a Result recycles but
// BondPaths (fleets are not bonded).
func TestFleetRecycledResultsMatchFresh(t *testing.T) {
	cfg := fleetTestConfig()
	cfg.Duration = 15 * time.Second
	cfg.Faults = fault.Config{
		RLF:     true,
		Windows: []fault.Window{{Start: time.Second, Duration: 500 * time.Millisecond, Dir: fault.Both}},
	}
	run := func(workers int, recycle bool) (fr *FleetResult, reg, events []byte, observed []string) {
		DropPooledBuffers()
		if !recycle {
			// putResult keeps no Result while a test tap is set, so every
			// run of this fleet builds a new one.
			datagramTap = func(*Result, rtp.PoolStats, rtp.PoolStats, int, int) {}
			defer func() { datagramTap = nil }()
		}
		var (
			sink registrySink
			errs []error
		)
		fr, errs = RunFleet(FleetConfig{Config: cfg, Size: 12, Sched: cell.SchedPF, Workers: workers, Events: true, StatusSink: &sink})
		for u, err := range errs {
			if err != nil {
				t.Fatalf("workers=%d recycle=%v uav %d: %v", workers, recycle, u, err)
			}
		}
		if spent := len(runPool.spent); recycle && !poisonSpent && spent == 0 {
			t.Fatalf("workers=%d: the fleet left no spent Result in the pool: nothing was recycled", workers)
		}
		var mb, eb bytes.Buffer
		if err := fr.WriteMetrics(&mb); err != nil {
			t.Fatal(err)
		}
		if err := fr.WriteCellEvents(&eb); err != nil {
			t.Fatal(err)
		}
		return fr, mb.Bytes(), eb.Bytes(), sink.sorted()
	}
	fresh, wantMetrics, wantEvents, wantObserved := run(1, false)
	if s := fresh.Summary; len(wantObserved) != 12 || s.Handovers == 0 || s.Stalls == 0 || len(s.FaultEpisodes) == 0 {
		t.Fatalf("the sink observed %d runs (want 12), the fleet %d handovers, %d stalls and %d fault episodes: too little to check",
			len(wantObserved), s.Handovers, s.Stalls, len(s.FaultEpisodes))
	}
	for _, workers := range []int{1, 2} {
		_, gotMetrics, gotEvents, gotObserved := run(workers, true)
		if !bytes.Equal(gotMetrics, wantMetrics) {
			t.Errorf("workers=%d: the recycled fleet's registry differs from the fresh fleet's", workers)
		}
		if !bytes.Equal(gotEvents, wantEvents) {
			t.Errorf("workers=%d: the recycled fleet's cell events differ from the fresh fleet's", workers)
		}
		if !slices.Equal(gotObserved, wantObserved) {
			t.Errorf("workers=%d: the sink observed registries that are not the fresh runs'", workers)
		}
	}
}

// TestTallySketchesListsEveryDistribution: sketches, which Result.reuse
// and Tally.add walk, lists every Sketch field of a Tally once.
func TestTallySketchesListsEveryDistribution(t *testing.T) {
	var tl Tally
	want := map[*metrics.Sketch]bool{}
	for _, d := range tallySketches(&tl) {
		want[d] = true
	}
	got := map[*metrics.Sketch]bool{}
	for _, d := range tl.sketches() {
		got[d] = true
	}
	if !reflect.DeepEqual(got, want) || len(got) != numTallySketches {
		t.Errorf("sketches lists %d distinct sketches of %d, want all %d", len(got), numTallySketches, len(want))
	}
}

// TestResultReuseEmptiesInPlace: a spent Result that reuse emptied is a new
// Result but for the storage it keeps — every count, rate and label zero,
// every distribution and event list empty — and its storage is the one it
// grew.
func TestResultReuseEmptiesInPlace(t *testing.T) {
	r := RunFresh(WorkerJob{Config: Resilient75s()})
	if len(r.Handovers) == 0 || len(r.Stalls) == 0 || len(r.BondPaths) == 0 || len(r.FaultEpisodes) == 0 || r.OWDms.N() == 0 {
		t.Fatalf("the flight fills too little to check: %d handovers, %d stalls, %d bond paths, %d fault episodes, %d OWD samples",
			len(r.Handovers), len(r.Stalls), len(r.BondPaths), len(r.FaultEpisodes), r.OWDms.N())
	}
	owd, handovers := r.OWDms.Buckets(), &r.Handovers[:1][0]
	r.reuse()
	if r.OWDms.Buckets() != owd || &r.Handovers[:1][0] != handovers {
		t.Error("reuse let go of the storage the run grew")
	}
	for name, d := range ResultSketches(r) {
		if d.N() != 0 {
			t.Errorf("%s holds %d samples after reuse", name, d.N())
		}
	}
	for _, name := range telemetryHists {
		if n := r.Telemetry.LogHistogram(name).N(); n != 0 {
			t.Errorf("telemetry %s holds %d samples after reuse", name, n)
		}
	}
	rest := *r
	for _, d := range rest.Tally.sketches() {
		*d = metrics.Sketch{}
	}
	rest.Handovers, rest.Stalls, rest.BondPaths, rest.FaultEpisodes, rest.Telemetry = nil, nil, nil, nil, nil
	if len(r.Handovers)+len(r.Stalls)+len(r.BondPaths)+len(r.FaultEpisodes) != 0 {
		t.Error("an event list is not empty after reuse")
	}
	if !reflect.DeepEqual(rest, Result{}) {
		t.Errorf("after reuse a field other than the distributions and event lists is not zero: %+v", rest)
	}
}

// TestResultPoolBounded: the pool keeps at most 2·GOMAXPROCS+1 spent
// Results (the executor's window at GOMAXPROCS workers), hands each out
// once, emptied, and DropPooledBuffers lets them go.
func TestResultPoolBounded(t *testing.T) {
	if poisonSpent {
		t.Skip("with rtppoison a spent Result is poisoned and dropped")
	}
	DropPooledBuffers()
	limit := 2*runtime.GOMAXPROCS(0) + 1
	spent := make([]*Result, 3*limit)
	for i := range spent {
		spent[i] = new(Result)
		spent[i].PacketsSent = i + 1
		runPool.putResult(spent[i])
	}
	if n := len(runPool.spent); n != limit {
		t.Errorf("the pool keeps %d of %d spent Results, want 2·GOMAXPROCS+1 (%d)", n, len(spent), limit)
	}
	seen := map[*Result]bool{}
	for i := 0; i < limit; i++ {
		r := runPool.result()
		if seen[r] || !slices.Contains(spent, r) || r.PacketsSent != 0 {
			t.Fatalf("result %d: %p (PacketsSent %d) is not a spent Result handed out once, emptied", i, r, r.PacketsSent)
		}
		seen[r] = true
	}
	if r := runPool.result(); seen[r] || slices.Contains(spent, r) {
		t.Error("an empty pool handed out a spent Result again")
	}
	runPool.putResult(spent[0])
	DropPooledBuffers()
	if n := len(runPool.spent); n != 0 {
		t.Errorf("DropPooledBuffers left %d spent Results", n)
	}
}

// TestLoneRunAfterFleetBuildsNewResult: a Run after a fleet builds its
// Result new, not on a spent fleet Result the pool still keeps. The caller
// keeps a lone flight's Result, so one built on a spent fleet Result would
// hold that UAV's grown storage for as long as the caller holds the Result.
func TestLoneRunAfterFleetBuildsNewResult(t *testing.T) {
	if poisonSpent {
		t.Skip("with rtppoison a spent Result is poisoned and dropped")
	}
	DropPooledBuffers()
	defer DropPooledBuffers()
	cfg := fleetTestConfig()
	cfg.Duration = 2 * time.Second
	if _, errs := RunFleet(FleetConfig{Config: cfg, Size: 4, Sched: cell.SchedRR, Workers: 1}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	runPool.mu.Lock()
	spent := slices.Clone(runPool.spent)
	runPool.mu.Unlock()
	if len(spent) == 0 {
		t.Fatal("the fleet left no spent Result in the pool")
	}
	r := Run(cfg)
	if slices.Contains(spent, r) {
		t.Fatal("a lone Run after a fleet built its Result on a spent fleet Result")
	}
	runPool.mu.Lock()
	defer runPool.mu.Unlock()
	if !slices.Equal(runPool.spent, spent) {
		t.Errorf("a lone Run took a spent Result from the pool: %d kept before, %d after", len(spent), len(runPool.spent))
	}
}
