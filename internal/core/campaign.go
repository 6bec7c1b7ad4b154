package core

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
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
	e.run(errs, func(i int) *Result {
		c := cfg
		c.Seed = DeriveSeed(cfg.Seed, i)
		return Run(c)
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
//     complete ahead of their turn wait in a pending map and nowhere else.
//
// A job is observed before it waits for its turn, so a fold is handed only
// observed Results and is their one owner. The executor owns no run
// buffers: a job takes its set from the process's pool (withBuffers).
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
}

// run executes job(i) for every i in [0, len(errs)), filling errs[i]. A job
// whose errs[i] is already set (a fleet UAV that failed an earlier phase)
// is not run: it is observed and folded as the failure it already is.
func (e *executor) run(errs []error, job func(i int) *Result, fold func(i int, r *Result)) {
	n := len(errs)
	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
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
		completed++
		if errs[i] != nil {
			failed++
		}
		if res != nil {
			simSecs += res.Duration.Seconds()
		}
		if e.sink != nil {
			e.publish(res, obs.StatusSnapshot{RunsDone: completed, RunsTotal: n, RunErrors: failed}, start, simSecs)
		}
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
	}
	// Each worker claims the next job until none is left. The caller is one
	// of them, so a single worker runs every job on the caller's goroutine.
	var claimed atomic.Int64
	work := func() {
		for i := int(claimed.Add(1) - 1); i < n; i = int(claimed.Add(1) - 1) {
			var res *Result
			if errs[i] == nil {
				res, errs[i] = runGuarded(e.unit, i, 0, job)
			}
			finish(i, res)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// publish hands the sink a completed job's registries, when it has a
// Result, and then the progress snapshot st, stamped with the wall and
// simulated time since start.
func (e *executor) publish(res *Result, st obs.StatusSnapshot, start time.Time, simSecs float64) {
	if res != nil {
		e.sink.ObserveRun(res.observedRegistry())
	}
	// The ETA extrapolates linearly from the jobs completed so far: a
	// heuristic for operators, not a promise.
	wall := time.Since(start).Seconds()
	st.Mode, st.Cells = e.mode, e.cells
	st.WallSeconds, st.Done = wall, st.RunsDone == st.RunsTotal
	if wall > 0 {
		st.SimRate = simSecs / wall
	}
	if st.RunsDone < st.RunsTotal {
		st.ETASeconds = wall / float64(st.RunsDone) * float64(st.RunsTotal-st.RunsDone)
	}
	e.sink.PublishStatus(st)
}

// runGuarded executes one job with panic recovery and, when timeout is
// positive, the wall-clock watchdog: a job that neither returns nor panics
// within the deadline is abandoned and converted into an error. The
// abandoned goroutine keeps running detached — Run has no cancellation
// point, so the watchdog trades a leaked goroutine for a reported failure
// instead of a wedged caller (the leak is bounded by the number of
// timed-out runs). It keeps its pooled buffers until it ends, so no other
// run is handed them while it still writes there. The campaign executor
// passes 0; RunWithTimeout is the one entry point that can arm it. Its
// errors name the job by jobName(unit, i), formatted only once one is built.
func runGuarded(unit string, i int, timeout time.Duration, job func(i int) *Result) (*Result, error) {
	if timeout <= 0 {
		var res *Result
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("%s panicked: %v", jobName(unit, i), r)
				}
			}()
			res = job(i)
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
				done <- outcome{nil, fmt.Errorf("%s panicked: %v", jobName(unit, i), r)}
			}
		}()
		done <- outcome{job(i), nil}
	}()
	watchdog := time.NewTimer(timeout)
	defer watchdog.Stop()
	select {
	case o := <-done:
		return o.res, o.err
	case <-watchdog.C:
		return nil, fmt.Errorf("%s exceeded the %v watchdog deadline and was abandoned", jobName(unit, i), timeout)
	}
}

// jobName names job i of unit ("campaign run 3"), or unit alone for i < 0.
func jobName(unit string, i int) string {
	if i < 0 {
		return unit
	}
	return unit + " " + strconv.Itoa(i)
}

// RunWithTimeout executes one run under the per-run watchdog: panics are
// recovered into the error and a run that outlives the deadline is
// abandoned with a timeout error — a hang becomes a bounded, reported
// failure. A zero timeout disables the watchdog but keeps the panic
// recovery, which is how a caller outside the campaign executor (the
// sharded fold's experiments.DistRunner, bench/) turns a run's panic into
// that run's error rather than a dead process.
func RunWithTimeout(cfg Config, timeout time.Duration) (*Result, error) {
	return runGuarded("run", -1, timeout, func(int) *Result { return Run(cfg) })
}
