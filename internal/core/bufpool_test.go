package core

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rpivideo/internal/cell"
)

// poolFlights are short flights that leave a buffer set in different
// states: GCC, SCReAM and a bonded, repaired, faulted one (the only user of
// the second uplink's rings).
func poolFlights() []Config {
	resilient := Resilient75s()
	resilient.Seed, resilient.Duration = 5, 4*time.Second
	return []Config{
		{Env: cell.Urban, Op: cell.P1, Air: true, CC: CCGCC, Seed: 3, Duration: 3 * time.Second},
		{Env: cell.Urban, Op: cell.P1, Air: true, CC: CCSCReAM, Seed: 4, Duration: 2 * time.Second},
		resilient,
	}
}

// pooled is a copy of what the pool keeps now.
func pooled() []*runBuffers {
	runPool.mu.Lock()
	defer runPool.mu.Unlock()
	return slices.Clone(runPool.free)
}

// TestRunBufferPoolNeverShares: runs that overlap in time never hold the
// same buffer set, nor its simulator, and each makes the run an empty set
// makes. Goroutines take sets through withBuffers, the path Run takes, and
// mark each one held while their run writes there; concurrent Run calls go
// through the real entry point. The bonded flight flies its second chain
// on the set's own second chain, emptied before the run. Under
// -race a shared set is also a data race.
func TestRunBufferPoolNeverShares(t *testing.T) {
	flights := poolFlights()
	want := make([]string, len(flights))
	for i, cfg := range flights {
		want[i] = resultFingerprint(RunFresh(WorkerJob{Config: cfg}))
	}
	var (
		mu   sync.Mutex
		held = map[any]bool{}
		wg   sync.WaitGroup
	)
	hold := func(b *runBuffers, on bool) {
		mu.Lock()
		defer mu.Unlock()
		pieces := []any{b}
		if b.sim != nil {
			pieces = append(pieces, b.sim)
		}
		for _, p := range pieces {
			if on && held[p] {
				t.Errorf("two live runs hold one buffer set's %T", p)
			}
			held[p] = on
		}
	}
	const goroutines = 4
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range flights {
				i := (g + k) % len(flights)
				var got *Result
				if g%2 == 0 {
					got = withBuffers(func(b *runBuffers) *Result {
						hold(b, true)
						defer hold(b, false)
						bonded := flights[i].Bond.Enabled()
						if bonded {
							b.chains[1] = chain{}
						}
						r := b.run(new(Result), flights[i], nil, nil, false)
						if bonded && b.chains[1].sky.cfg.MeasurementInterval == 0 {
							t.Errorf("flight %d is bonded, but its second chain did not fly on the set's second chain", i)
						}
						return r
					})
				} else {
					got = Run(flights[i])
				}
				if fp := resultFingerprint(got); fp != want[i] {
					t.Errorf("goroutine %d, flight %d: a pooled run differs from a fresh one", g, i)
				}
			}
		}()
	}
	wg.Wait()
	kept := pooled()
	if len(kept) > runtime.GOMAXPROCS(0) {
		t.Errorf("the pool keeps %d sets, more than GOMAXPROCS (%d)", len(kept), runtime.GOMAXPROCS(0))
	}
	for i, b := range kept {
		if slices.Contains(kept[i+1:], b) {
			t.Error("the pool keeps one set twice")
		}
	}
}

// TestRunBufferPoolDropsPanickedSet: a run that panicked may have left any
// buffer half-written, so its set never goes back to the pool — through
// withBuffers, through RunWithTimeout and through a campaign worker, whose
// next job starts on another set.
func TestRunBufferPoolDropsPanickedSet(t *testing.T) {
	DropPooledBuffers()
	var broken *runBuffers
	func() {
		defer func() { _ = recover() }()
		withBuffers(func(b *runBuffers) *Result {
			broken = b
			panic("mid-run")
		})
	}()
	if broken == nil || len(pooled()) != 0 {
		t.Fatalf("a panicked job's set went back: pool %p", pooled())
	}

	bad := Config{Env: cell.Urban, CC: CCSCReAM, Seed: 1, Duration: time.Second, ScreamFeedbackInterval: -time.Millisecond}
	if _, err := RunWithTimeout(bad, 0); err == nil {
		t.Fatal("the panicking run returned no error")
	}
	if n := len(pooled()); n != 0 {
		t.Errorf("after a panicked RunWithTimeout the pool keeps %d sets, want 0", n)
	}

	used := make([]*runBuffers, 3)
	errs := make([]error, 3)
	e := executor{workers: 1, unit: "job"}
	e.run(errs, func(i int) *Result {
		return withBuffers(func(b *runBuffers) *Result {
			used[i] = b
			if i == 1 {
				panic("mid-job")
			}
			return nil
		})
	}, func(int, *Result) {})
	if errs[1] == nil || used[0] != used[1] || used[2] == used[1] {
		t.Errorf("sets by job %p (errors %v): want job 1 on job 0's set and job 2 on another after job 1 panicked", used, errs)
	}
	if kept := pooled(); slices.Contains(kept, used[1]) || !slices.Contains(kept, used[2]) {
		t.Errorf("pool %p after the campaign: want job 2's set %p and not the panicked job's %p", kept, used[2], used[1])
	}
}

// TestRunBufferPoolWaitsForAbandonedRun: a run RunWithTimeout's watchdog
// abandoned keeps running on its set, so the set is not handed to any run
// until the abandoned one ends — then it goes back like any other.
func TestRunBufferPoolWaitsForAbandonedRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))) // room for both sets
	DropPooledBuffers()
	blocked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hung := Config{Env: cell.Urban, Op: cell.P1, Air: true, CC: CCGCC, Seed: 2, Duration: 4 * time.Second}
	stall := func(now time.Duration) float64 {
		if now > time.Second {
			once.Do(func() { close(blocked); <-release })
		}
		return 1
	}
	// RunWithTimeout's watchdog over Run, on a run that hangs.
	_, err := runGuarded("run", -1, 20*time.Millisecond, func(int) *Result {
		return withBuffers(func(b *runBuffers) *Result { return b.run(new(Result), hung, nil, stall, false) })
	})
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("the hung run was not abandoned: %v", err)
	}
	<-blocked // the abandoned run is still going, on the set it took
	if n := len(pooled()); n != 0 {
		t.Fatalf("the pool keeps %d sets while the abandoned run holds its own, want 0", n)
	}
	short := Config{Env: cell.Urban, Op: cell.P1, Air: true, CC: CCGCC, Seed: 3, Duration: time.Second}
	Run(short) // takes a new set: the abandoned run's is not there to take
	mine := pooled()
	if len(mine) != 1 {
		t.Fatalf("the pool keeps %d sets after one run beside the abandoned one, want 1", len(mine))
	}
	close(release)
	deadline := time.Now().Add(time.Minute)
	for len(pooled()) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned run's set never came back after the run ended")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if kept := pooled(); kept[0] != mine[0] || kept[1] == mine[0] {
		t.Errorf("pool %p: want the other run's set %p, then the abandoned run's own", kept, mine[0])
	}
}

// TestRunBufferPoolBounded: the pool keeps at most GOMAXPROCS sets however
// many runs gave one back, and lets the rest go.
func TestRunBufferPoolBounded(t *testing.T) {
	DropPooledBuffers()
	limit := runtime.GOMAXPROCS(0)
	sets := make([]*runBuffers, 3*limit)
	for i := range sets {
		sets[i] = runPool.take()
	}
	for i, b := range sets {
		if slices.Contains(sets[:i], b) {
			t.Fatal("the pool handed out one set twice")
		}
	}
	for _, b := range sets {
		runPool.put(b)
	}
	if kept := pooled(); len(kept) != limit {
		t.Errorf("the pool keeps %d of %d sets given back, want GOMAXPROCS (%d)", len(kept), len(sets), limit)
	}

	cfg := Config{Env: cell.Urban, Op: cell.P1, Air: true, CC: CCStatic, Seed: 6, Duration: time.Second}
	if _, errs := RunCampaignWithOptions(cfg, 4*limit, CampaignOptions{Workers: 2 * limit}); slices.ContainsFunc(errs, func(err error) bool { return err != nil }) {
		t.Fatalf("campaign errors %v", errs)
	}
	if n := len(pooled()); n > limit {
		t.Errorf("after a campaign on %d workers the pool keeps %d sets, more than GOMAXPROCS (%d)", 2*limit, n, limit)
	}
}
