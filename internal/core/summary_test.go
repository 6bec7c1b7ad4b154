package core

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"rpivideo/internal/bond"
	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
	"rpivideo/internal/metrics"
	"rpivideo/internal/obs"
	"rpivideo/internal/repair"
)

// updateWire regenerates the package's checked-in testdata
// (resilient-75s.metrics.json) instead of comparing:
//
//	go test ./internal/core -run TestResilientLongHorizonPinned -update
var updateWire = flag.Bool("update", false, "rewrite the goldens under testdata/")

// number reads an integer or float field as a float64 (every count here is
// far below 2^53, so the conversion is exact).
func number(v reflect.Value) (float64, bool) {
	switch {
	case v.CanInt():
		return float64(v.Int()), true
	case v.CanUint():
		return float64(v.Uint()), true
	case v.CanFloat():
		return v.Float(), true
	}
	return 0, false
}

// TestSummaryMatchesMerge holds AddResult, the one campaign fold, to the
// sample-retaining reference fold of merge_ref_test.go on every exported
// field of Summary, found by reflection: numbers exactly (floats to the
// last few ulps), distribution queries within the sketch's relative-error
// guarantee of the runs' raw samples. A field added to Result has to be
// folded into a Summary field of its name, and move off zero there, or be
// listed below as per-run.
func TestSummaryMatchesMerge(t *testing.T) {
	tp := InstallTap(t)
	results := wireCampaign(t)
	ref, dists := mergeRef(results, tp)
	sum := Summarize(results)

	// What a Summary holds under a name the reference does not: lengths of
	// the per-event lists and the slowest ramp-up.
	derived := map[string]float64{
		"Runs":      float64(len(results)),
		"Handovers": float64(len(ref.Handovers)),
		"Stalls":    float64(len(ref.Stalls)),
		"RampUpMax": float64(ref.RampUpTo25),
	}
	// Counters these three flights leave at zero. Any other number that is
	// zero in the reference is a field mergeRef does not fold either, which
	// would make the comparison vacuous. (ScreamDiscards is not: the bonded
	// SCReAM flight discards its send queue.)
	zero := map[string]bool{
		"Overflows": true, "RLFs": true, "HandoverFailures": true, "BondSwitches": true,
		"ScreamLossesWindow": true, "RtxLost": true, "RtxStaleDrops": true, "RtxOverflows": true, "RampUpMax": true,
	}
	// Result fields that describe one run and have no campaign aggregate of
	// their name.
	perRun := map[string]bool{
		"BondPolicy": true, "RampUpTo25": true,
		"Trace": true, "Telemetry": true, "SimEvents": true, "SimTimerPeak": true,
	}

	sv, rv := reflect.ValueOf(sum).Elem(), reflect.ValueOf(ref).Elem()
	for _, sf := range reflect.VisibleFields(sv.Type()) {
		if sf.Anonymous {
			continue // the embedded Tally: its fields are visited one by one
		}
		name, f := sf.Name, sv.FieldByIndex(sf.Index)
		switch got := f.Addr().Interface().(type) {
		case *Config:
			if !reflect.DeepEqual(*got, results[0].Config) {
				t.Errorf("Config is not the first run's")
			}
		case *[]fault.Episode:
			if len(*got) == 0 || !reflect.DeepEqual(*got, ref.FaultEpisodes) {
				t.Errorf("FaultEpisodes = %v, want %v", *got, ref.FaultEpisodes)
			}
		case *[]BondPathStats:
			if len(*got) == 0 || !reflect.DeepEqual(*got, ref.BondPaths) {
				t.Errorf("BondPaths = %+v, want %+v", *got, ref.BondPaths)
			}
		case *metrics.Sketch:
			if dists[name].N() == 0 {
				t.Errorf("%s: the reference holds no samples", name)
			}
			matchSketch(t, name, got, dists[name])
		case *[altBuckets]metrics.Sketch:
			if dists[name+"[0]"].N() == 0 {
				t.Errorf("%s: the reference holds no samples", name)
			}
			for b := range got {
				key := fmt.Sprintf("%s[%d]", name, b)
				matchSketch(t, key, &got[b], dists[key])
			}
		default:
			g, ok := number(f)
			if !ok {
				t.Errorf("Summary.%s is a %s, which this test does not know how to compare", name, f.Type())
				continue
			}
			want, ok := derived[name]
			if !ok {
				if want, ok = number(rv.FieldByName(name)); !ok {
					t.Errorf("Summary.%s has no number of that name in Result to be compared with", name)
					continue
				}
			}
			if math.Abs(g-want) > 1e-12*math.Abs(want) {
				t.Errorf("%s = %v, want %v", name, g, want)
			}
			if want == 0 && !zero[name] {
				t.Errorf("%s is zero in the reference fold too: does mergeRef fold it?", name)
			} else if want != 0 && zero[name] {
				t.Errorf("%s = %v is listed as zero in this campaign", name, want)
			}
		}
	}
	for _, rf := range reflect.VisibleFields(rv.Type()) {
		if _, ok := sv.Type().FieldByName(rf.Name); !ok && !rf.Anonymous && !perRun[rf.Name] {
			t.Errorf("Result.%s is neither folded into a Summary field of that name nor listed as per-run", rf.Name)
		}
	}
	if sum.HandoverRate() != ref.HandoverRate() {
		t.Errorf("HandoverRate = %v, want %v", sum.HandoverRate(), ref.HandoverRate())
	}
}

// TestCampaignRegistryIsMergeOfRuns: the campaign registry, rendered from
// the Summary, writes the same bytes as the runs' own registries merged in
// run-index order, which is the registry FoldDistShards rebuilds from shards. A
// failed (nil) run is skipped by both, and an empty campaign renders an
// empty registry.
func TestCampaignRegistryIsMergeOfRuns(t *testing.T) {
	results := wireCampaign(t)
	// Gauges are where a fold could part from the merge, which keeps their
	// maximum: with two runs carrying each, a sum would show.
	downs, queues := 0, 0
	for _, r := range results {
		if len(r.BondPaths) > 0 && r.BondPaths[0].DownMs > 0 {
			downs++
		}
		if r.PostOutageQueueMs > 0 {
			queues++
		}
	}
	if downs < 2 || queues < 2 {
		t.Fatalf("%d runs with bond_path0_down_ms and %d with post_outage_queue_ms_max, want 2 each", downs, queues)
	}
	failed := []*Result{results[0], nil, results[1], results[2]}
	for name, rs := range map[string][]*Result{"wireCampaign": results, "failed run": failed, "empty": nil} {
		merged := obs.NewRegistry()
		for _, r := range rs {
			if r != nil {
				merged.Merge(r.MetricsRegistry())
			}
		}
		var want, got bytes.Buffer
		if err := merged.WriteJSON(&want); err != nil {
			t.Fatal(err)
		}
		if err := CampaignMetrics(rs).WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: CampaignMetrics is not the merge of the runs' registries:\n%s\nwant\n%s", name, got.Bytes(), want.Bytes())
		}
	}
}

// matchSketch compares a folded sketch with the samples it was folded from:
// count, extremes and mean exactly, quantiles within the sketch guarantee.
func matchSketch(t *testing.T, name string, sk *metrics.Sketch, d *metrics.Dist) {
	t.Helper()
	if sk.N() != d.N() {
		t.Errorf("%s: N %d vs %d", name, sk.N(), d.N())
		return
	}
	if sk.Min() != d.Min() || sk.Max() != d.Max() {
		t.Errorf("%s: extremes [%g,%g] vs [%g,%g]", name, sk.Min(), sk.Max(), d.Min(), d.Max())
	}
	if math.Abs(sk.Mean()-d.Mean()) > 1e-12*math.Abs(d.Mean()) {
		t.Errorf("%s: mean %g vs %g", name, sk.Mean(), d.Mean())
	}
	for _, q := range []float64{0.25, 0.5, 0.75, 0.95} {
		sq, dq := sk.Quantile(q), d.Quantile(q)
		// One bucket's relative error plus the gap Dist interpolation
		// can straddle between adjacent order statistics.
		tol := metrics.SketchAlpha*math.Abs(dq) + 1e-9
		if gap := interpGap(d, q); gap > tol {
			tol = gap * (1 + metrics.SketchAlpha)
		}
		if math.Abs(sq-dq) > tol {
			t.Errorf("%s q=%g: sketch %g vs dist %g (tol %g)", name, q, sq, dq, tol)
		}
	}
}

// interpGap is the spread between the two order statistics Dist.Quantile
// interpolates between at q.
func interpGap(d *metrics.Dist, q float64) float64 {
	n := d.N()
	if n < 2 {
		return 0
	}
	pos := q * float64(n-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	if lo == hi {
		return 0
	}
	s := d.Samples()
	// Samples() preserves insertion order; quantile ranks need sorted order.
	// Sorting the copy is fine — it is ours.
	sort.Float64s(s)
	return math.Abs(s[hi] - s[lo])
}

// wireCampaign is a short campaign that moves every field group of Summary:
// two bonded (spray) SCReAM flights over a rural cell with repair, CoDel, a
// scripted outage, a loss fade and RLF armed, plus one ping flight for the RTT
// distributions.
func wireCampaign(t *testing.T) []*Result {
	t.Helper()
	video := Config{
		Env: cell.Rural, Op: cell.P1, Air: true, CC: CCSCReAM, Seed: 2, Duration: 30 * time.Second,
		AQM:    true,
		Bond:   bond.Config{Policy: bond.PolicySpray},
		Repair: repair.Config{Enabled: true},
		Faults: fault.Config{
			Windows: []fault.Window{
				{Start: 8 * time.Second, Duration: time.Second, Dir: fault.Both},
				{Start: 15 * time.Second, Duration: 80 * time.Millisecond, Dir: fault.Both, Loss: true},
			},
			RLF: true, Watchdog: true, KeyframeRecovery: true,
		},
	}
	ping := Config{Env: cell.Rural, Op: cell.P1, Air: true, Workload: WorkloadPing, Seed: 2, Duration: 30 * time.Second}
	results, errs := RunCampaignWithOptions(video, 2, CampaignOptions{})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return append(results, Run(ping))
}

// runCampaignSummary runs a campaign straight into a Summary, folding each
// run as its turn comes and dropping it — what the experiment suite's
// campaign() does through RunCampaignFold.
func runCampaignSummary(cfg Config, runs int, opts CampaignOptions) (*Summary, []error) {
	sum := &Summary{}
	errs := RunCampaignFold(cfg, runs, opts, func(_ int, r *Result) { sum.AddResult(r) })
	return sum, errs
}

// TestRunCampaignSummaryDeterministic: the streaming fold must equal the
// batch fold, at any worker count, field for field — this is the byte-
// stability contract the report bundles build on.
func TestRunCampaignSummaryDeterministic(t *testing.T) {
	cfg := Config{Env: cell.Urban, Air: true, CC: CCGCC, Seed: 21, Duration: 20 * time.Second}
	const runs = 5

	batchRes, berrs := RunCampaignWithOptions(cfg, runs, CampaignOptions{})
	for _, err := range berrs {
		if err != nil {
			t.Fatal(err)
		}
	}
	batch := Summarize(batchRes)

	serial, serrs := runCampaignSummary(cfg, runs, CampaignOptions{Workers: 1})
	par, perrs := runCampaignSummary(cfg, runs, CampaignOptions{Workers: 4})
	for i := 0; i < runs; i++ {
		if serrs[i] != nil || perrs[i] != nil {
			t.Fatalf("run %d errored: serial %v, parallel %v", i, serrs[i], perrs[i])
		}
	}
	if !reflect.DeepEqual(serial, par) {
		t.Error("streaming summary differs between serial and parallel execution")
	}
	if !reflect.DeepEqual(serial, batch) {
		t.Error("streaming summary differs from batch Summarize")
	}
}

// TestRunCampaignSummaryPanic: a panicking run lands in its error slot and
// is simply missing from the aggregate; the other runs still fold.
func TestRunCampaignSummaryPanic(t *testing.T) {
	// A negative SCReAM feedback interval makes sim.Every panic inside Run.
	cfg := Config{Env: cell.Urban, CC: CCSCReAM, Seed: 1,
		Duration: time.Second, ScreamFeedbackInterval: -time.Millisecond}
	sum, errs := runCampaignSummary(cfg, 3, CampaignOptions{Workers: 2})
	for i, err := range errs {
		if err == nil {
			t.Errorf("run %d: expected panic error", i)
		}
	}
	if sum.Runs != 0 {
		t.Errorf("failed runs folded into the summary: Runs=%d", sum.Runs)
	}
}

// TestSummaryMemoryBounded: the retained distribution payload must stop
// growing with the run count once sketches spill, while the number of
// samples folded keeps climbing.
func TestSummaryMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config campaign")
	}
	cfg := Config{Env: cell.Urban, Air: true, CC: CCGCC, Seed: 5, Duration: 30 * time.Second}
	small, errs := runCampaignSummary(cfg, 2, CampaignOptions{})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	large, errs := runCampaignSummary(cfg, 8, CampaignOptions{})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	count := func(s *Summary) (samples, cells int) {
		for _, sk := range tallySketches(&s.Tally) {
			samples += sk.N()
			cells += sk.Buckets()
		}
		return samples, cells
	}
	smallN, smallCells := count(small)
	largeN, largeCells := count(large)
	if largeN < 3*smallN {
		t.Fatalf("sample counts did not scale: %d vs %d", largeN, smallN)
	}
	// 4× the runs must cost well under 4× the retained cells; in practice the
	// bucket set barely grows once the value range is covered.
	if largeCells > 2*smallCells {
		t.Errorf("retained cells grew with run count: %d for 8 runs vs %d for 2", largeCells, smallCells)
	}
	// And both are far below what the raw samples would occupy (8 bytes a
	// cell, as a sample).
	if 20*largeCells > largeN {
		t.Errorf("%d sketch cells not ≪ %d raw samples", largeCells, largeN)
	}
}
