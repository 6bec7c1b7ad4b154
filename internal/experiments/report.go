// Package experiments regenerates every table and figure of the paper's
// evaluation (§4, §5, Appendix A) from the simulation pipeline. Each
// experiment of the ordered list (Experiments) runs its named configuration
// variants, prints the rows/series the paper plots and records named
// quantities; the rows of the targets table (targets.go) — the qualitative
// claims that must hold (who wins, by roughly what factor, where crossovers
// fall) — are evaluated against those quantities by one function. cmd/rpbench
// prints the reports; TestAllExperimentsSatisfyShapeChecks asserts the checks.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"rpivideo/internal/core"
	"rpivideo/internal/fault"
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
	// logical CPU, 1 forces serial execution. Results are identical at any
	// setting (campaigns merge in run-index order), so Workers is
	// deliberately not part of the campaign memoization key.
	Workers int
	// FaultSpec overrides the robust, repair and bond experiments' scripted
	// fault schedule (fault.ParseSchedule syntax, e.g.
	// "45s+2s,70s+500ms/up"). Empty selects each experiment's default. The
	// caller validates it: an experiment panics on a spec that does not
	// parse into at least one window.
	FaultSpec string
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

// schedule parses the experiment's fault schedule: Options.FaultSpec, or
// def when it is empty.
func (o Options) schedule(def string) (string, []fault.Window) {
	spec := o.FaultSpec
	if spec == "" {
		spec = def
	}
	ws, err := fault.ParseSchedule(spec)
	if err != nil || len(ws) == 0 {
		panic(fmt.Sprintf("fault schedule %q has no window: %v", spec, err))
	}
	return spec, ws
}

// Check is one evaluated row of the targets table.
type Check struct {
	Name   string
	OK     bool
	Detail string
}

// Report is the output of one experiment: its rendered rows, the named
// quantities it measured, and its targets rows evaluated on them.
type Report struct {
	ID         string
	Title      string
	Lines      []string
	Quantities map[string]float64
	Checks     []Check
}

// row appends one formatted output row.
func (r *Report) row(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// set records one named quantity.
func (r *Report) set(name string, v float64) {
	r.Quantities[name] = v
}

// stat records a statistic of a sample. An empty sample has no statistic:
// the quantity is NaN, so no row can pass on it.
func (r *Report) stat(name string, sample interface{ N() int }, v float64) {
	if sample.N() == 0 {
		v = math.NaN()
	}
	r.set(name, v)
}

// measure records, under prefix, the campaign quantities several
// experiments' rows read.
func (r *Report) measure(prefix string, s *core.Summary) {
	r.stat(prefix+".goodput", &s.Goodput, s.GoodputMean())
	r.stat(prefix+".playback<300", &s.PlaybackMs, s.PlaybackMs.FracBelow(300))
	r.stat(prefix+".owd_p95", &s.OWDms, s.OWDms.Quantile(0.95))
	r.stat(prefix+".owd_p99", &s.OWDms, s.OWDms.Quantile(0.99))
	r.stat(prefix+".recovery_max", &s.RecoveryMs, s.RecoveryMs.Max())
	r.set(prefix+".stalls_per_min", s.StallsPerMin)
	r.set(prefix+".handover_rate", s.HandoverRate())
	r.set(prefix+".post_outage_queue_ms", s.PostOutageQueueMs)
	r.set(prefix+".rtx_bytes", float64(s.RtxBytes))
	r.set(prefix+".repair_budget", s.RepairBudgetAccrued)
	for name, n := range map[string]int{
		"recoveries": s.RecoveryMs.N(), "outages": s.Outages, "overflows": s.Overflows,
		"overflow+stale": s.Overflows + s.StaleDrops, "frames_skipped": s.FramesSkipped,
		"keyframe_requests": s.KeyframeRequests, "aqm_drops": s.AQMDrops,
		"multipath_duplicates": s.MultipathDuplicates, "nacks_sent": s.NacksSent,
		"packets_repaired": s.PacketsRepaired, "frames_repaired": s.FramesRepaired,
		"repair_denied": s.RepairDenied, "repair_abandoned": s.RepairAbandoned,
	} {
		r.set(prefix+"."+name, float64(n))
	}
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

// fold is one memoized campaign: its Summary and, next to it, the only
// per-run facts a figure reads that a Summary does not keep, each added in
// run-index order.
type fold struct {
	core.Summary
	hoRates []float64 // each run's handover rate (HO/s)
	rampUpS []float64 // each run's time to reach 25 Mbps (s), if it did
	hetMs   []float64 // every handover's execution time (ms)
	stallMs float64   // total stall time (ms)
}

// campaigns memoizes folds: several figures consume the same configuration
// (Figs. 6 and 7a–c all need the six method×environment campaigns; Figs.
// 4a, 4b and 5 share the mobility sweep), and a fold is a pure function of
// (Config, Runs). A campaign streams through core.RunCampaignFold, never
// holding more than the in-flight runs.
var campaigns sync.Map // campaignKey → *campaignOnce

type campaignOnce struct {
	once sync.Once
	f    *fold
}

// campaignKey is the memoization key: results are pure functions of
// (Config, Runs), so Workers is deliberately excluded.
func campaignKey(cfg core.Config, o Options) string {
	return fmt.Sprintf("%+v|%d", cfg, o.Runs)
}

// campaignOptions is how the suite's campaigns execute: Workers and
// StatusSink only, neither of which affects a result.
func (o Options) campaignOptions() core.CampaignOptions {
	return core.CampaignOptions{Workers: o.Workers, StatusSink: o.StatusSink}
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

// campaign returns the memoized fold of a configuration's campaign. Callers
// must not mutate it.
func campaign(cfg core.Config, o Options) *fold {
	e, _ := campaigns.LoadOrStore(campaignKey(cfg, o), &campaignOnce{})
	c := e.(*campaignOnce)
	c.once.Do(func() {
		f := &fold{}
		mustRun(core.RunCampaignFold(cfg, o.Runs, o.campaignOptions(), func(_ int, r *core.Result) {
			if r == nil {
				return
			}
			f.AddResult(r)
			f.hoRates = append(f.hoRates, r.HandoverRate())
			if r.RampUpTo25 > 0 {
				f.rampUpS = append(f.rampUpS, r.RampUpTo25.Seconds())
			}
			for _, ev := range r.Handovers {
				f.hetMs = append(f.hetMs, float64(ev.HET)/float64(time.Millisecond))
			}
			for _, s := range r.Stalls {
				f.stallMs += float64(s.Duration) / float64(time.Millisecond)
			}
		}))
		c.f = f
	})
	return c.f
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
