package core

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"rpivideo/internal/obs"
	"rpivideo/internal/ordered"
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
	// order, on the worker that ran the run and before its fold; no fold
	// holds a lock the sink needs. At most 2·Workers+1 runs are between
	// their start and their fold, so a slow run holds back at most that
	// many completed ones. It feeds the -serve ops endpoints and has no
	// effect on results.
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
// epoch windows, not its trace). fold is called on the caller's goroutine,
// outside every lock, in strict index order at any worker count; a run that
// failed is folded as nil and reported in the returned per-run errors.
// Nothing is retained once fold returns, and at most 2·Workers+1 runs are
// between their start and their fold, so peak memory is that many Results
// whatever the campaign's length.
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
// phases of RunFleet. It is written on ordered.Run and keeps three
// contracts:
//
//   - every job runs under runGuarded, so a panic becomes that job's error
//     and its result is nil;
//   - the observer, a StatusSink, is serialized by the executor's own
//     mutex and sees jobs in completion order, on the worker that ran them;
//   - fold sees jobs in strict index order whatever order they complete
//     in — a nil result still takes its turn — on the caller's goroutine
//     and outside every lock, which is what makes every export
//     byte-identical at any worker count. At most 2·workers+1 jobs are
//     between their start and their fold (ordered.Run's window), so a
//     slow job holds back only that many completed Results.
//
// A job is observed before its slot is handed to the fold, so a fold is
// handed only observed Results and is their one owner. The executor owns
// no run buffers: a job takes its set from the process's pool
// (withBuffers).
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
	start := time.Now()
	var (
		mu                sync.Mutex // serializes observe
		completed, failed int
		simSecs           float64
	)
	// observe counts a finished job and hands the sink its registries, when
	// it has a Result, and then a progress snapshot stamped with the wall
	// and simulated time since start.
	observe := func(i int, res *Result) {
		mu.Lock()
		defer mu.Unlock()
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
			e.sink.ObserveRun(res.observedRegistry())
		}
		// The ETA extrapolates linearly from the jobs completed so far: a
		// heuristic for operators, not a promise.
		wall := time.Since(start).Seconds()
		st := obs.StatusSnapshot{Mode: e.mode, Cells: e.cells, RunsDone: completed, RunsTotal: n, RunErrors: failed, WallSeconds: wall, Done: completed == n}
		if wall > 0 {
			st.SimRate = simSecs / wall
		}
		if completed < n {
			st.ETASeconds = wall / float64(completed) * float64(n-completed)
		}
		e.sink.PublishStatus(st)
	}
	type slot struct {
		i   int
		res *Result
	}
	workers, next := min(workers, n), 0
	ordered.Run(workers, func(s *slot) bool {
		*s = slot{i: next}
		next++
		return s.i < n
	}, func(s *slot) {
		if workers > 1 {
			// The fold this worker's last job woke waits on this worker's
			// processor: let it run now, not a time slice into this job.
			runtime.Gosched()
		}
		if errs[s.i] == nil {
			s.res, errs[s.i] = runGuarded(e.unit, s.i, 0, job)
		}
		observe(s.i, s.res)
	}, func(s *slot) error {
		fold(s.i, s.res)
		return nil
	})
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
func runGuarded(unit string, i int, timeout time.Duration, job func(i int) *Result) (res *Result, err error) {
	if timeout <= 0 {
		defer func() {
			if r := recover(); r != nil {
				res, err = nil, fmt.Errorf("%s panicked: %v", jobName(unit, i), r)
			}
		}()
		return job(i), nil
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1) // buffered: a late finisher must not block
	go func() {
		res, err := runGuarded(unit, i, 0, job)
		done <- outcome{res, err}
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
