package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"rpivideo/internal/obs"
)

// CampaignOptions tunes how a campaign executes. The zero value gives the
// defaults: one worker per logical CPU and the splitmix seed derivation.
type CampaignOptions struct {
	// Workers is the number of runs executed concurrently. Zero (or
	// negative) selects runtime.GOMAXPROCS(0); 1 executes serially.
	// Results do not depend on this: runs are pure functions of
	// (Config, Seed) and are merged back in run-index order, so the
	// output is byte-identical regardless of scheduling.
	Workers int
	// LegacySeeds selects the pre-campaign-engine seed derivation
	// (cfg.Seed*1_000_003 + runIndex) so historical numbers — the
	// EXPERIMENTS.md record in particular — can be regenerated exactly.
	// The default is DeriveSeed.
	LegacySeeds bool
	// Progress, when non-nil, is invoked once per completed run. Calls
	// are serialized by the engine, so the callback needs no locking of
	// its own, but it must not block for long: it runs on the campaign's
	// critical path.
	Progress func(CampaignProgress)
	// StatusSink, when non-nil, receives live telemetry: a progress
	// snapshot after every completed run plus each run's merged metrics +
	// telemetry registry. It is called under the engine's progress lock
	// (serialized, like Progress) and feeds the -serve ops endpoints; it
	// has no effect on results.
	StatusSink obs.StatusSink
}

// CampaignProgress is one campaign status sample, emitted as each run
// completes (in completion order, which under parallelism is not run-index
// order).
type CampaignProgress struct {
	// Completed and Total count finished runs against the campaign size.
	Completed, Total int
	// RunIndex identifies the run that just finished.
	RunIndex int
	// Err is non-nil when that run panicked; its result slot is nil.
	Err error
	// Wall is the wall-clock time since the campaign started.
	Wall time.Duration
	// SimRate is the aggregate simulation speed so far, in simulated
	// seconds per wall-clock second across all completed runs.
	SimRate float64
}

// DeriveSeed mixes a campaign base seed and a run index into the run's
// seed using a splitmix64-style finalizer. Unlike the legacy affine scheme
// (base*1_000_003 + run), which collides trivially across campaigns
// (base+1 at run 0 equals base at run 1_000_003, and nearby bases yield
// overlapping arithmetic progressions), the multiply–xorshift finalizer
// decorrelates every (base, run) pair.
func DeriveSeed(base int64, run int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(run+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// legacySeed is the pre-campaign-engine derivation, kept behind
// CampaignOptions.LegacySeeds for reproducing historical results.
func legacySeed(base int64, run int) int64 {
	return base*1_000_003 + int64(run)
}

// runSeed resolves the seed for one run under the selected derivation.
func (o CampaignOptions) runSeed(base int64, run int) int64 {
	if o.LegacySeeds {
		return legacySeed(base, run)
	}
	return DeriveSeed(base, run)
}

// RunCampaignWithOptions executes a campaign of runs independent
// repetitions of cfg on a worker pool and returns per-run results and
// per-run errors, both indexed by run. A run that panics is recovered into
// its error slot (with its result slot nil) without disturbing the other
// runs. Results are merged back in run-index order, so for a given
// (cfg, runs, seed derivation) the output is byte-identical at any worker
// count.
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
	e := executor{workers: opts.Workers, unit: "campaign run", progress: opts.Progress, sink: opts.StatusSink}
	e.run(errs, func(i int) *Result {
		c := cfg
		c.Seed = opts.runSeed(cfg.Seed, i)
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
//   - the observer (Progress, StatusSink) is serialized and sees jobs in
//     completion order;
//   - fold is serialized and sees jobs in strict index order whatever order
//     they complete in — a nil result still takes its turn — which is what
//     makes every export byte-identical at any worker count. Results that
//     complete ahead of their turn wait in a pending map and nowhere else.
type executor struct {
	workers  int    // <= 0 selects GOMAXPROCS
	unit     string // names job i in its error: "campaign run 3"
	progress func(CampaignProgress)
	sink     obs.StatusSink
	// mode and cells are stamped on every published snapshot. Campaigns
	// leave both zero (the sink labels the mode); a fleet sets "fleet" and
	// its per-cell contention table.
	mode  string
	cells []obs.CellStatus
}

// run executes job(i) for every i in [0, len(errs)), filling errs[i]. A job
// whose errs[i] is already set (a fleet UAV that failed an earlier phase)
// is not run: it is observed and folded as the failure it already is.
func (e executor) run(errs []error, job func(i int) *Result, fold func(i int, r *Result)) {
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
		if e.progress == nil && e.sink == nil {
			return
		}
		p := CampaignProgress{Completed: completed, Total: n, RunIndex: i, Err: errs[i], Wall: time.Since(start)}
		if w := p.Wall.Seconds(); w > 0 {
			p.SimRate = simSecs / w
		}
		if e.progress != nil {
			e.progress(p)
		}
		if e.sink != nil {
			if res != nil {
				reg := res.MetricsRegistry()
				if res.Telemetry != nil {
					reg.Merge(res.Telemetry)
				}
				e.sink.ObserveRun(reg)
			}
			s := campaignSnapshot(p, failed)
			s.Mode, s.Cells = e.mode, e.cells
			e.sink.PublishStatus(s)
		}
	}
	runOne := func(i int) {
		var res *Result
		if errs[i] == nil {
			res, errs[i] = runGuarded(fmt.Sprintf("%s %d", e.unit, i), 0, func() *Result { return job(i) })
		}
		finish(i, res)
	}

	if workers <= 1 {
		for i := 0; i < n; i++ {
			runOne(i)
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
				runOne(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// campaignSnapshot converts one progress sample into the live status shape.
// The ETA extrapolates linearly from runs completed so far; it is a
// heuristic for operators, not a promise. Mode is left empty for the sink
// to stamp (the Telemetry hub's SetLabels): the engine can't tell a plain
// campaign from one run on behalf of an experiment figure.
func campaignSnapshot(p CampaignProgress, failed int) obs.StatusSnapshot {
	s := obs.StatusSnapshot{
		RunsDone:    p.Completed,
		RunsTotal:   p.Total,
		RunErrors:   failed,
		WallSeconds: p.Wall.Seconds(),
		SimRate:     p.SimRate,
		Done:        p.Completed >= p.Total,
	}
	if p.Completed > 0 && p.Completed < p.Total {
		s.ETASeconds = p.Wall.Seconds() / float64(p.Completed) * float64(p.Total-p.Completed)
	}
	return s
}

// runGuarded executes one job with panic recovery and, when timeout is
// positive, the wall-clock watchdog: a job that neither returns nor panics
// within the deadline is abandoned and converted into an error. The
// abandoned goroutine keeps running detached — Run has no cancellation
// point, so the watchdog trades a leaked goroutine for a reported failure
// instead of a wedged caller (the leak is bounded by the number of
// timed-out runs). The campaign executor passes 0; RunWithTimeout, inside
// -dist workers, is the one caller that arms it. name labels the error
// messages ("campaign run 3").
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
// recovery — the shape distributed workers need to turn any single-run
// failure into a reported shard error rather than a dead process.
func RunWithTimeout(cfg Config, timeout time.Duration) (*Result, error) {
	return runGuarded("run", timeout, func() *Result { return Run(cfg) })
}
