package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"rpivideo/internal/obs"
)

// CampaignOptions tunes how a campaign executes. The zero value gives the
// default: one worker per logical CPU. Run i of a campaign always runs at
// DeriveSeed(cfg.Seed, i).
type CampaignOptions struct {
	// Workers is the number of runs executed concurrently. Zero (or
	// negative) selects runtime.GOMAXPROCS(0); 1 executes serially.
	// Results do not depend on this: runs are pure functions of
	// (Config, Seed) and are merged back in run-index order, so the
	// output is byte-identical regardless of scheduling.
	Workers int
	// StatusSink, when non-nil, receives live telemetry: a progress
	// snapshot after every completed run plus each run's metrics +
	// telemetry registry. Calls are serialized by the engine, in completion
	// order, and run on the campaign's critical path. It feeds the -serve
	// ops endpoints and has no effect on results.
	StatusSink obs.StatusSink
}

// DeriveSeed mixes a campaign base seed and a run index into the run's
// seed using a splitmix64-style finalizer. Unlike an affine scheme
// (base*1_000_003 + run), which collides trivially across campaigns
// (base+1 at run 0 equals base at run 1_000_003, and nearby bases yield
// overlapping arithmetic progressions), the multiply–xorshift finalizer
// decorrelates every (base, run) pair. It is the only run-seed rule: every
// campaign, fleet and sharded sweep uses it.
func DeriveSeed(base int64, run int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(run+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// RunCampaignWithOptions executes a campaign of runs independent
// repetitions of cfg on a worker pool and returns per-run results and
// per-run errors, both indexed by run. A run that panics is recovered into
// its error slot (with its result slot nil) without disturbing the other
// runs. Results are merged back in run-index order, so for a given
// (cfg, runs) the output is byte-identical at any worker count.
func RunCampaignWithOptions(cfg Config, runs int, opts CampaignOptions) ([]*Result, []error) {
	if runs <= 0 {
		return nil, nil
	}
	results := make([]*Result, runs)
	errs := RunCampaignFold(cfg, runs, opts, func(i int, r *Result) { results[i] = r })
	return results, errs
}

// RunCampaignFold executes a campaign and hands each run's result to fold
// as soon as its turn in run-index order comes — the body of
// RunCampaignWithOptions (fold stores results[i]), and the streaming path
// for callers inside the module that reduce a run to something else (a
// campaign summary folds Summary.AddResult; Fig. 9 keeps a traced run's
// epoch windows, not its trace). fold calls are serialized and in strict index order at any worker
// count; a run that failed is folded as nil and reported in the returned
// per-run errors. Nothing is retained once fold returns, so peak memory is
// the in-flight runs plus whatever completed ahead of its turn.
func RunCampaignFold(cfg Config, runs int, opts CampaignOptions, fold func(i int, r *Result)) []error {
	if runs <= 0 {
		return nil
	}
	errs := make([]error, runs)
	e := executor{workers: opts.Workers, unit: "campaign run", sink: opts.StatusSink}
	e.run(errs, func(i int, b *runBuffers) *Result {
		c := cfg
		c.Seed = DeriveSeed(cfg.Seed, i)
		return b.run(c, false)
	}, fold)
	return errs
}

// executor is the one engine every in-process campaign entry point runs on:
// RunCampaignFold (and through it RunCampaignWithOptions) and both per-UAV
// phases of RunFleet. It keeps three
// contracts:
//
//   - every job runs under runGuarded, so a panic becomes that job's error
//     and its result is nil;
//   - the observer, a StatusSink, is serialized and sees jobs in
//     completion order;
//   - fold is serialized and sees jobs in strict index order whatever order
//     they complete in — a nil result still takes its turn — which is what
//     makes every export byte-identical at any worker count. Results that
//     complete ahead of their turn wait in a pending map and nowhere else;
//   - each worker hands its jobs one runBuffers, the same from job to job and
//     from one run call to the next on the same executor (RunFleet's two
//     phases), except after a job that panicked: that worker starts over
//     with an empty set.
type executor struct {
	workers int    // <= 0 selects GOMAXPROCS
	unit    string // names job i in its error: "campaign run 3"
	sink    obs.StatusSink
	// mode and cells are stamped on every published snapshot. Campaigns
	// leave both zero (the sink labels the mode: the engine can't tell a
	// plain campaign from one run on behalf of an experiment figure); a
	// fleet sets "fleet" and its per-cell contention table.
	mode  string
	cells []obs.CellStatus
	// bufs holds worker w's buffers at index w, kept across run calls.
	bufs []*runBuffers
}

// run executes job(i, b) for every i in [0, len(errs)), filling errs[i]; b
// is the buffers of the worker running it. A job whose errs[i] is already
// set (a fleet UAV that failed an earlier phase) is not run: it is observed
// and folded as the failure it already is.
func (e *executor) run(errs []error, job func(i int, b *runBuffers) *Result, fold func(i int, r *Result)) {
	n := len(errs)
	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	for len(e.bufs) < max(workers, 1) {
		e.bufs = append(e.bufs, new(runBuffers))
	}
	start := time.Now()
	var (
		mu        sync.Mutex
		pending   = make(map[int]*Result)
		next      int
		completed int
		failed    int
		simSecs   float64
	)
	finish := func(i int, res *Result) {
		mu.Lock()
		defer mu.Unlock()
		pending[i] = res
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			fold(next, r)
			next++
		}
		completed++
		if errs[i] != nil {
			failed++
		}
		if res != nil {
			simSecs += res.Duration.Seconds()
		}
		if e.sink == nil {
			return
		}
		if res != nil {
			reg := res.MetricsRegistry()
			if res.Telemetry != nil {
				reg.Merge(res.Telemetry)
			}
			e.sink.ObserveRun(reg)
		}
		// The ETA extrapolates linearly from the jobs completed so far: a
		// heuristic for operators, not a promise.
		wall := time.Since(start).Seconds()
		st := obs.StatusSnapshot{Mode: e.mode, RunsDone: completed, RunsTotal: n, RunErrors: failed,
			WallSeconds: wall, Done: completed == n, Cells: e.cells}
		if wall > 0 {
			st.SimRate = simSecs / wall
		}
		if completed < n {
			st.ETASeconds = wall / float64(completed) * float64(n-completed)
		}
		e.sink.PublishStatus(st)
	}
	runOne := func(i, w int) {
		var res *Result
		if errs[i] == nil {
			b := e.bufs[w]
			res, errs[i] = runGuarded(fmt.Sprintf("%s %d", e.unit, i), 0, func() *Result { return job(i, b) })
			if errs[i] != nil {
				e.bufs[w] = new(runBuffers) // the panic may have left b half-written
			}
		}
		finish(i, res)
	}

	if workers <= 1 {
		for i := 0; i < n; i++ {
			runOne(i, 0)
		}
		return
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				runOne(i, w)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// runGuarded executes one job with panic recovery and, when timeout is
// positive, the wall-clock watchdog: a job that neither returns nor panics
// within the deadline is abandoned and converted into an error. The
// abandoned goroutine keeps running detached — Run has no cancellation
// point, so the watchdog trades a leaked goroutine for a reported failure
// instead of a wedged caller (the leak is bounded by the number of
// timed-out runs). The campaign executor passes 0; RunWithTimeout is the
// one entry point that can arm it. name labels the error messages
// ("campaign run 3").
func runGuarded(name string, timeout time.Duration, job func() *Result) (*Result, error) {
	if timeout <= 0 {
		var res *Result
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("%s panicked: %v", name, r)
				}
			}()
			res = job()
			return nil
		}()
		if err != nil {
			return nil, err
		}
		return res, nil
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1) // buffered: a late finisher must not block
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{nil, fmt.Errorf("%s panicked: %v", name, r)}
			}
		}()
		done <- outcome{job(), nil}
	}()
	watchdog := time.NewTimer(timeout)
	defer watchdog.Stop()
	select {
	case o := <-done:
		return o.res, o.err
	case <-watchdog.C:
		return nil, fmt.Errorf("%s exceeded the %v watchdog deadline and was abandoned", name, timeout)
	}
}

// RunWithTimeout executes one run under the per-run watchdog: panics are
// recovered into the error and a run that outlives the deadline is
// abandoned with a timeout error — a hang becomes a bounded, reported
// failure. A zero timeout disables the watchdog but keeps the panic
// recovery, which is how a caller outside the campaign executor (the
// sharded fold's experiments.DistRunner, bench/) turns a run's panic into
// that run's error rather than a dead process.
func RunWithTimeout(cfg Config, timeout time.Duration) (*Result, error) {
	return runGuarded("run", timeout, func() *Result { return Run(cfg) })
}
