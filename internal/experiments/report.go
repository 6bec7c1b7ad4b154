// Package experiments regenerates every table and figure of the paper's
// evaluation (§4, §5, Appendix A) from the simulation pipeline. Each
// experiment returns a Report containing the same rows/series the paper
// plots plus explicit shape checks — the qualitative claims that must hold
// (who wins, by roughly what factor, where crossovers fall). cmd/rpbench
// prints the reports; bench_test.go asserts the checks.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"rpivideo/internal/core"
	"rpivideo/internal/obs"
)

// Options controls experiment scale.
type Options struct {
	// Runs is the number of seeded repetitions per configuration (3 if
	// zero).
	Runs int
	// Seed is the base seed (1 if zero).
	Seed int64
	// Workers caps per-campaign parallelism: 0 means one worker per
	// logical CPU, 1 forces serial execution. Results are identical at
	// any setting (campaigns merge in run-index order), so Workers is
	// deliberately not part of the campaign memoization key.
	Workers int
	// FaultSpec overrides the robustness experiment's scripted outage
	// schedule (fault.ParseSchedule syntax, e.g. "45s+2s,70s+500ms/up").
	// Empty selects the default single 2 s blackout.
	FaultSpec string
	// BondPolicy restricts the bond experiment to one scheduler policy
	// (duplicate, failover, cheapest or spray). Empty compares all four.
	BondPolicy string
	// StatusSink, when non-nil, receives live campaign progress and per-run
	// metrics for the -serve ops endpoints. Like Workers it is excluded
	// from the memoization key: it observes execution without affecting
	// results (a memoized campaign re-publishes nothing — the runs already
	// happened).
	StatusSink obs.StatusSink
}

func (o *Options) defaults() {
	if o.Runs == 0 {
		o.Runs = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Check is one shape assertion derived from the paper's claims.
type Check struct {
	Name   string
	OK     bool
	Detail string
}

// Report is the output of one experiment.
type Report struct {
	ID     string
	Title  string
	Lines  []string
	Checks []Check
}

// row appends one formatted output row.
func (r *Report) row(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// check records one shape assertion.
func (r *Report) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// OK reports whether every check passed.
func (r *Report) OK() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// FailedChecks lists the names of failed checks.
func (r *Report) FailedChecks() []string {
	var out []string
	for _, c := range r.Checks {
		if !c.OK {
			out = append(out, c.Name+": "+c.Detail)
		}
	}
	return out
}

// WriteTo renders the report.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s — %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		fmt.Fprintf(&sb, "  %s\n", l)
	}
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&sb, "  [%s] %-40s %s\n", status, c.Name, c.Detail)
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// campaignCache memoizes seeded campaigns: several figures consume the same
// configuration (Figs. 6 and 7a–c all need the six method×environment
// campaigns; Figs. 4a, 4b and 5 share the mobility sweep), and results are
// pure functions of (Config, Runs). Two caches exist because figures consume
// campaigns at two granularities: per-run results (handover event lists,
// per-run rates) and campaign summaries. Only the few figures that
// need per-run detail pay for retained samples; aggregate-only figures go
// through the sketch-based summary path, whose memory is O(buckets)
// regardless of the run count.
var (
	campaignCache sync.Map // string → *campaignEntry
	summaryCache  sync.Map // string → *summaryEntry
)

type campaignEntry struct {
	once sync.Once
	res  []*core.Result
	done atomic.Bool // res published (set inside once)
}

type summaryEntry struct {
	once sync.Once
	sum  *core.Summary
}

// ResetCache clears the campaign memoization. Benchmarks call it between
// iterations so every iteration measures a full regeneration.
func ResetCache() {
	campaignCache.Range(func(k, _ any) bool {
		campaignCache.Delete(k)
		return true
	})
	summaryCache.Range(func(k, _ any) bool {
		summaryCache.Delete(k)
		return true
	})
}

// campaignKey is the memoization key: results are pure functions of
// (Config, Runs), so Workers is deliberately excluded.
func campaignKey(cfg core.Config, o Options) string {
	return fmt.Sprintf("%+v|%d", cfg, o.Runs)
}

// experimentOptions pins the suite's campaign options. The experiment suite
// is the paper-vs-measured record: its shape thresholds and the
// EXPERIMENTS.md tables were calibrated under the legacy seed derivation, so
// campaigns here pin LegacySeeds to keep that record comparable across
// engine changes. Campaigns run through the public API default to the
// collision-resistant derivation.
func experimentOptions(o Options) core.CampaignOptions {
	return core.CampaignOptions{Workers: o.Workers, LegacySeeds: true, StatusSink: o.StatusSink}
}

// mustRun panics on the first per-run error of a campaign: a figure with a
// run missing is not the figure.
func mustRun(errs []error) {
	for _, err := range errs {
		if err != nil {
			panic(err)
		}
	}
}

// seededCampaign returns the memoized per-run results for a configuration.
// Callers must not mutate the returned results. Figures that only need the
// campaign aggregate should use campaign instead — this path retains every
// run's samples.
func seededCampaign(cfg core.Config, o Options) []*core.Result {
	key := campaignKey(cfg, o)
	e, _ := campaignCache.LoadOrStore(key, &campaignEntry{})
	ent := e.(*campaignEntry)
	ent.once.Do(func() {
		res, errs := core.RunCampaignWithOptions(cfg, o.Runs, experimentOptions(o))
		mustRun(errs)
		ent.res = res
		ent.done.Store(true)
	})
	return ent.res
}

// campaign returns the memoized sketch-based summary for a configuration.
// When another figure has already materialized the per-run results (the
// mobility configs feed both granularities), those are folded rather than
// re-run; otherwise the campaign streams through core.RunCampaignFold into
// Summary.AddResult, never holding more than the in-flight runs. Either path
// folds in run-index order, so the summary is identical.
func campaign(cfg core.Config, o Options) *core.Summary {
	key := campaignKey(cfg, o)
	e, _ := summaryCache.LoadOrStore(key, &summaryEntry{})
	ent := e.(*summaryEntry)
	ent.once.Do(func() {
		if pr, ok := campaignCache.Load(key); ok {
			if pe := pr.(*campaignEntry); pe.done.Load() {
				ent.sum = core.Summarize(pe.res)
				return
			}
		}
		sum := &core.Summary{}
		mustRun(core.RunCampaignFold(cfg, o.Runs, experimentOptions(o), func(_ int, r *core.Result) { sum.AddResult(r) }))
		ent.sum = sum
	})
	return ent.sum
}

// cdfer is the CDF query both Dist and Sketch answer.
type cdfer interface {
	CDF(xs []float64) []float64
}

// cdfRow formats a CDF evaluated at grid points.
func cdfRow(name string, d cdfer, xs []float64) string {
	ps := d.CDF(xs)
	parts := make([]string, len(xs))
	for i := range xs {
		parts[i] = fmt.Sprintf("≤%g: %.3f", xs[i], ps[i])
	}
	return fmt.Sprintf("%-22s %s", name, strings.Join(parts, "  "))
}
