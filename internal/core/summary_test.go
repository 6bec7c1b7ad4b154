package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"rpivideo/internal/bond"
	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
	"rpivideo/internal/metrics"
	"rpivideo/internal/repair"
)

// updateWire regenerates the package's checked-in testdata
// (summary.wire.json, resilient-75s.metrics.json) instead of comparing:
//
//	go test ./internal/core -run TestSummaryJSONRoundTrip -update
var updateWire = flag.Bool("update", false, "rewrite the goldens under testdata/")

// TestSummaryMatchesMerge: the sketch-based campaign aggregate must agree
// with the sample-retaining Merge on every field the experiments consume —
// counters exactly, distribution queries within the sketch's relative-error
// guarantee.
func TestSummaryMatchesMerge(t *testing.T) {
	cfg := Config{Env: cell.Urban, Air: true, CC: CCGCC, Seed: 17, Duration: 25 * time.Second}
	const runs = 4
	results, errs := RunCampaignWithOptions(cfg, runs, CampaignOptions{})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	merged := Merge(results)
	sum := Summarize(results)

	if sum.Runs != runs || sum.Duration != merged.Duration {
		t.Fatalf("runs=%d dur=%v, want %d / %v", sum.Runs, sum.Duration, runs, merged.Duration)
	}
	// Counters must match exactly.
	counters := []struct {
		name      string
		got, want int
	}{
		{"PacketsSent", sum.PacketsSent, merged.PacketsSent},
		{"PacketsDelivered", sum.PacketsDelivered, merged.PacketsDelivered},
		{"PacketsLost", sum.PacketsLost, merged.PacketsLost},
		{"Overflows", sum.Overflows, merged.Overflows},
		{"CtrlPacketsSent", sum.CtrlPacketsSent, merged.CtrlPacketsSent},
		{"Handovers", sum.Handovers, len(merged.Handovers)},
		{"Stalls", sum.Stalls, len(merged.Stalls)},
		{"FramesPlayed", sum.FramesPlayed, merged.FramesPlayed},
		{"FramesSkipped", sum.FramesSkipped, merged.FramesSkipped},
		{"KeyframeRequests", sum.KeyframeRequests, merged.KeyframeRequests},
		{"Outages", sum.Outages, merged.Outages},
		{"NacksSent", sum.NacksSent, merged.NacksSent},
		{"PacketsRepaired", sum.PacketsRepaired, merged.PacketsRepaired},
	}
	for _, c := range counters {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if sum.PER != merged.PER {
		t.Errorf("PER = %v, want %v", sum.PER, merged.PER)
	}
	if sum.StallsPerMin != merged.StallsPerMin {
		t.Errorf("StallsPerMin = %v, want %v", sum.StallsPerMin, merged.StallsPerMin)
	}
	if sum.HandoverRate() != merged.HandoverRate() {
		t.Errorf("HandoverRate = %v, want %v", sum.HandoverRate(), merged.HandoverRate())
	}

	// Distribution queries within the sketch guarantee.
	dists := []struct {
		name string
		sk   *metrics.Sketch
		d    *metrics.Dist
	}{
		{"OWDms", &sum.OWDms, &merged.OWDms},
		{"Goodput", &sum.Goodput, &merged.Goodput},
		{"FPS", &sum.FPS, &merged.FPS},
		{"PlaybackMs", &sum.PlaybackMs, &merged.PlaybackMs},
		{"SSIM", &sum.SSIM, &merged.SSIM},
		{"JitterMs", &sum.JitterMs, &merged.JitterMs},
	}
	for _, dc := range dists {
		if dc.sk.N() != dc.d.N() {
			t.Errorf("%s: N %d vs %d", dc.name, dc.sk.N(), dc.d.N())
			continue
		}
		if dc.sk.Min() != dc.d.Min() || dc.sk.Max() != dc.d.Max() {
			t.Errorf("%s: extremes [%g,%g] vs [%g,%g]", dc.name,
				dc.sk.Min(), dc.sk.Max(), dc.d.Min(), dc.d.Max())
		}
		for _, q := range []float64{0.25, 0.5, 0.75, 0.95} {
			sq, dq := dc.sk.Quantile(q), dc.d.Quantile(q)
			// One bucket's relative error plus the gap Dist interpolation
			// can straddle between adjacent order statistics.
			tol := metrics.SketchAlpha*math.Abs(dq) + 1e-9
			if gap := interpGap(dc.d, q); gap > tol {
				tol = gap * (1 + metrics.SketchAlpha)
			}
			if math.Abs(sq-dq) > tol {
				t.Errorf("%s q=%g: sketch %g vs dist %g (tol %g)", dc.name, q, sq, dq, tol)
			}
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

// wireCampaign is the short pinned campaign behind testdata/summary.wire.json:
// two bonded (spray) SCReAM flights over a rural cell with repair, CoDel, a
// scripted outage, a loss fade and RLF armed, plus one ping flight for the RTT
// distributions — between them every field group of Summary is non-zero.
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

// TestSummaryJSONRoundTrip locks the wire form the distributed campaign
// shards travel in, against a checked-in golden: the pinned campaign's
// summary must marshal to exactly testdata/summary.wire.json, the golden
// must survive unmarshal → marshal byte for byte (canonical output), and a
// summary merged from per-run summaries that each crossed the wire must
// serialize identically to one merged from the originals — the exact fold
// the dist coordinator performs. Regenerate with -update only for an
// intentional wire change.
func TestSummaryJSONRoundTrip(t *testing.T) {
	results := wireCampaign(t)
	sum := Summarize(results)
	got, err := json.Marshal(sum)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got = append(got, '\n')
	const golden = "testdata/summary.wire.json"
	if *updateWire {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("summary wire form drifted from %s:\n got %s\nwant %s", golden, got, want)
	}

	var rt Summary
	if err := json.Unmarshal(want, &rt); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	again, err := json.Marshal(&rt)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(append(again, '\n'), want) {
		t.Fatalf("round trip not canonical:\n first %s\nsecond %s", want, again)
	}
	if rt.SamplesFolded() != sum.SamplesFolded() || rt.SamplesFolded() == 0 {
		t.Errorf("samplesFolded lost on the wire: %d, want %d", rt.SamplesFolded(), sum.SamplesFolded())
	}

	direct, wired := &Summary{}, &Summary{}
	for _, r := range results {
		one := Summarize([]*Result{r})
		direct.Merge(one)
		raw, err := json.Marshal(one)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		// Decode into a dirty receiver: Unmarshal must overwrite, not merge.
		dec := *sum
		if err := json.Unmarshal(raw, &dec); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		wired.Merge(&dec)
	}
	a, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(wired)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("merge of round-tripped summaries diverged:\n direct %s\n  wired %s", a, b)
	}
	// Against the batch fold the merged summary agrees on everything but the
	// float-sum grouping (AddResult adds sample by sample, Merge run by run).
	if wired.Runs != sum.Runs || wired.PacketsSent != sum.PacketsSent || wired.SamplesFolded() != sum.SamplesFolded() ||
		wired.OWDms.N() != sum.OWDms.N() || wired.RTTms.N() != sum.RTTms.N() || wired.PER != sum.PER {
		t.Fatalf("merge of per-run summaries lost data vs Summarize: %+v", wired)
	}
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

	serial, serrs := RunCampaignSummary(cfg, runs, CampaignOptions{Workers: 1})
	par, perrs := RunCampaignSummary(cfg, runs, CampaignOptions{Workers: 4})
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
	sum, errs := RunCampaignSummary(cfg, 3, CampaignOptions{Workers: 2})
	for i, err := range errs {
		if err == nil {
			t.Errorf("run %d: expected panic error", i)
		}
	}
	if sum.Runs != 0 {
		t.Errorf("failed runs folded into the summary: Runs=%d", sum.Runs)
	}
}

// TestSummaryMemoryBounded is the tentpole's acceptance check: the retained
// distribution payload must stop growing with the run count once sketches
// spill, while the folded-sample counter keeps climbing.
func TestSummaryMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config campaign")
	}
	cfg := Config{Env: cell.Urban, Air: true, CC: CCGCC, Seed: 5, Duration: 30 * time.Second}
	small, errs := RunCampaignSummary(cfg, 2, CampaignOptions{})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	large, errs := RunCampaignSummary(cfg, 8, CampaignOptions{})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if large.SamplesFolded() < 3*small.SamplesFolded() {
		t.Fatalf("sample counts did not scale: %d vs %d", large.SamplesFolded(), small.SamplesFolded())
	}
	// 4× the runs must cost well under 4× the retained bytes; in practice the
	// bucket set barely grows once the value range is covered.
	if got, limit := large.RetainedBytes(), 2*small.RetainedBytes(); got > limit {
		t.Errorf("retained bytes grew with run count: %d for 8 runs vs %d for 2 (limit %d)",
			got, small.RetainedBytes(), limit)
	}
	// And both are far below what the raw samples would occupy.
	if raw := 8 * large.SamplesFolded(); int64(large.RetainedBytes()) > raw/10 {
		t.Errorf("sketch payload %d B not ≪ raw payload %d B", large.RetainedBytes(), raw)
	}
}
