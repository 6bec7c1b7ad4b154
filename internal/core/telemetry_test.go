package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/metrics"
	"rpivideo/internal/obs"
)

func telemetryTestConfig() Config {
	return Config{
		Env:      cell.Urban,
		Op:       cell.P1,
		CC:       CCGCC,
		Seed:     1,
		Duration: time.Second,
	}
}

// countingSink counts what an engine publishes on its way to the hub.
type countingSink struct {
	*obs.Telemetry
	observed, published int
}

func (c *countingSink) ObserveRun(r *obs.Registry) {
	c.observed++
	c.Telemetry.ObserveRun(r)
}

func (c *countingSink) PublishStatus(s obs.StatusSnapshot) {
	c.published++
	c.Telemetry.PublishStatus(s)
}

// TestCampaignStatusSink: every campaign entry point — per-run results and
// a fold straight into a Summary alike — drives the sink once per run to a terminal
// snapshot with runs_done == runs_total, every run's latency histograms
// reach the merged registry, and failed runs are counted, not observed.
func TestCampaignStatusSink(t *testing.T) {
	const runs = 3
	entries := []struct {
		name string
		run  func(Config, CampaignOptions) []error
	}{
		{"RunCampaignWithOptions", func(cfg Config, o CampaignOptions) []error {
			_, errs := RunCampaignWithOptions(cfg, runs, o)
			return errs
		}},
		{"RunCampaignSummary", func(cfg Config, o CampaignOptions) []error {
			_, errs := runCampaignSummary(cfg, runs, o)
			return errs
		}},
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			sink := &countingSink{Telemetry: obs.NewTelemetry()}
			sink.SetLabels("campaign", "test")
			for _, err := range e.run(telemetryTestConfig(), CampaignOptions{StatusSink: sink}) {
				if err != nil {
					t.Fatal(err)
				}
			}
			if sink.observed != runs || sink.published != runs {
				t.Errorf("sink saw %d runs and %d snapshots, want %d of each", sink.observed, sink.published, runs)
			}
			st, ok := sink.Status()
			if !ok {
				t.Fatal("campaign published no status")
			}
			if st.RunsDone != runs || st.RunsTotal != runs || !st.Done {
				t.Errorf("terminal snapshot %+v, want %d/%d done", st, runs, runs)
			}
			if st.Mode != "campaign" {
				t.Errorf("mode %q, want campaign", st.Mode)
			}
			if st.RunErrors != 0 {
				t.Errorf("run errors %d, want 0", st.RunErrors)
			}
			if st.WallSeconds <= 0 || st.SimRate <= 0 {
				t.Errorf("timing fields not populated: wall=%g rate=%g", st.WallSeconds, st.SimRate)
			}

			reg := sink.SnapshotRegistry()
			if got := reg.Counter("packets_sent"); got <= 0 {
				t.Errorf("merged packets_sent counter = %d, want > 0", got)
			}
			for _, name := range []string{TelemetryFrameDelay, TelemetryQueueDelay} {
				if reg.LogHistogram(name).N() == 0 {
					t.Errorf("log histogram %s is empty after %d runs", name, runs)
				}
			}
			// A clean urban run has handovers but no repair traffic, so the NACK
			// RTT histogram exists and stays empty — presence is the contract.
			if reg.LogHistogram(TelemetryNackRTT) == nil {
				t.Error("nack RTT histogram missing")
			}

			// A negative SCReAM feedback interval makes every run panic.
			bad := telemetryTestConfig()
			bad.CC, bad.ScreamFeedbackInterval = CCSCReAM, -time.Millisecond
			failing := &countingSink{Telemetry: obs.NewTelemetry()}
			e.run(bad, CampaignOptions{StatusSink: failing})
			st, _ = failing.Status()
			if failing.observed != 0 || failing.published != runs || st.RunErrors != runs || !st.Done {
				t.Errorf("failing campaign: %d observed, %d published, terminal %+v; want 0, %d and %d run errors",
					failing.observed, failing.published, st, runs, runs)
			}
		})
	}
}

// TestFleetStatusSink: a fleet run publishes the per-cell contention table
// on every snapshot and ends with uavs_done == fleet size.
func TestFleetStatusSink(t *testing.T) {
	tel := obs.NewTelemetry()
	cfg := telemetryTestConfig()
	cfg.CC = CCStatic
	cfg.Air = true
	const size = 3
	_, errs := RunFleet(FleetConfig{Config: cfg, Size: size, StatusSink: tel})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st, ok := tel.Status()
	if !ok {
		t.Fatal("fleet published no status")
	}
	if st.Mode != "fleet" {
		t.Errorf("mode %q, want fleet", st.Mode)
	}
	if st.RunsDone != size || st.RunsTotal != size || !st.Done {
		t.Errorf("terminal snapshot %+v, want %d/%d done", st, size, size)
	}
	if len(st.Cells) == 0 {
		t.Fatal("fleet snapshot carries no cell table")
	}
	attaches := 0
	for _, c := range st.Cells {
		attaches += c.Attaches
	}
	if attaches < size {
		t.Errorf("cell table shows %d attaches for a fleet of %d", attaches, size)
	}
	if reg := tel.SnapshotRegistry(); reg.LogHistogram(TelemetryFrameDelay).N() == 0 {
		t.Error("fleet runs recorded no frame delays")
	}
}

// observedRun runs cfg as a one-run campaign and returns its Result with
// the registry the campaign's StatusSink observed for it.
func observedRun(t *testing.T, cfg Config) (*Result, *obs.Registry) {
	t.Helper()
	sink := &recordingSink{}
	results, errs := RunCampaignWithOptions(cfg, 1, CampaignOptions{StatusSink: sink})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if len(sink.runs) != 1 {
		t.Fatalf("the sink observed %d registries, want 1", len(sink.runs))
	}
	return results[0], sink.runs[0]
}

// TestTelemetryRepeatsResult: the two live histograms rendered from a
// Result into the registry a sink observes hold exactly its samples — frame
// delay those of PlaybackMs, handover interruption one per Handovers[i].HET
// — down to count, sum, extremes and every bucket.
func TestTelemetryRepeatsResult(t *testing.T) {
	cfg := telemetryTestConfig()
	cfg.Air, cfg.Duration = true, 40*time.Second
	res, reg := observedRun(t, cfg)
	var het metrics.Sketch
	for _, ev := range res.Handovers {
		het.Add(float64(ev.HET) / float64(time.Millisecond))
	}
	buckets := func(s *metrics.Sketch) (out [][2]float64) {
		s.EachBucket(func(upper float64, n int64) { out = append(out, [2]float64{upper, float64(n)}) })
		return out
	}
	for _, c := range []struct {
		name string
		want *metrics.Sketch
		minN int
	}{
		{TelemetryFrameDelay, &res.PlaybackMs, 200}, // past the exact window
		{TelemetryHandoverInterruption, &het, 1},
	} {
		got := reg.LogHistogram(c.name)
		if got.N() < c.minN {
			t.Errorf("%s: %d samples, want at least %d", c.name, got.N(), c.minN)
		}
		if got.N() != c.want.N() || got.Sum() != c.want.Sum() || got.Quantile(0) != c.want.Quantile(0) || got.Max() != c.want.Max() ||
			!reflect.DeepEqual(buckets(got), buckets(c.want)) {
			t.Errorf("%s (N %d, sum %g, [%g, %g]) does not hold the Result's samples (N %d, sum %g, [%g, %g])",
				c.name, got.N(), got.Sum(), got.Quantile(0), got.Max(), c.want.N(), c.want.Sum(), c.want.Quantile(0), c.want.Max())
		}
	}
	if n := reg.LogHistogram(TelemetryFrameDelay).N(); n != res.FramesPlayed {
		t.Errorf("frame delay count %d != frames played %d", n, res.FramesPlayed)
	}
}

// TestRunTelemetryHistograms: one run's Result.Telemetry holds the two
// histograms the run records nowhere else (queue delay, NACK RTT), and none
// of the four live histograms leaks into the byte-stable MetricsRegistry
// surface. A ping run's observed registry still carries all four series,
// empty ones included, so a /metrics scrape always exposes them.
func TestRunTelemetryHistograms(t *testing.T) {
	res := Run(telemetryTestConfig())
	if res.Telemetry == nil {
		t.Fatal("Result.Telemetry not populated")
	}
	if res.Telemetry.LogHistogram(TelemetryQueueDelay).N() == 0 {
		t.Error("queue delay histogram empty")
	}
	names := []string{TelemetryFrameDelay, TelemetryQueueDelay, TelemetryNackRTT, TelemetryHandoverInterruption}
	if got := histogramNames(t, res.Telemetry); !reflect.DeepEqual(got, []string{TelemetryNackRTT, TelemetryQueueDelay}) {
		t.Errorf("Result.Telemetry holds %v, want only the NACK RTT and queue delay histograms", got)
	}
	// The live histograms must NOT leak into the baseline-compared
	// registry: checked-in baselines predate them.
	drifts := obs.CompareRegistries(obs.NewRegistry(), res.MetricsRegistry(), obs.Tolerance{})
	for _, d := range drifts {
		for _, name := range names {
			if strings.HasPrefix(d.Metric, "histogram/"+name) {
				t.Errorf("telemetry histogram leaked into MetricsRegistry: %s", d)
			}
		}
	}

	ping := telemetryTestConfig()
	ping.Workload = WorkloadPing
	_, reg := observedRun(t, ping)
	got := histogramNames(t, reg)
	for _, name := range names {
		if !slices.Contains(got, name) {
			t.Errorf("a ping run's observed registry lacks the %s series (has %v)", name, got)
		}
	}
	if n := reg.LogHistogram(TelemetryFrameDelay).N(); n != 0 {
		t.Errorf("a ping run's frame delay histogram holds %d samples, want 0", n)
	}
}

// histogramNames lists the histograms reg exports, in sorted order.
func histogramNames(t *testing.T, reg *obs.Registry) []string {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	if err := json.Unmarshal(b.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range out.Histograms {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
