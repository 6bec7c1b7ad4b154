package core

import (
	"strings"
	"testing"
	"time"

	"rpivideo/internal/cell"
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

// TestRunTelemetryHistograms: one run's Result carries the live-telemetry
// registry with the wired delay histograms, separate from the byte-stable
// MetricsRegistry surface.
func TestRunTelemetryHistograms(t *testing.T) {
	res := Run(telemetryTestConfig())
	if res.Telemetry == nil {
		t.Fatal("Result.Telemetry not populated")
	}
	fd := res.Telemetry.LogHistogram(TelemetryFrameDelay)
	if fd.N() == 0 {
		t.Error("frame delay histogram empty")
	}
	if fd.N() != res.FramesPlayed {
		t.Errorf("frame delay count %d != frames played %d", fd.N(), res.FramesPlayed)
	}
	if res.Telemetry.LogHistogram(TelemetryQueueDelay).N() == 0 {
		t.Error("queue delay histogram empty")
	}
	// The live histograms must NOT leak into the baseline-compared
	// registry: checked-in baselines predate them.
	drifts := obs.CompareRegistries(obs.NewRegistry(), res.MetricsRegistry(), obs.Tolerance{})
	for _, d := range drifts {
		for _, name := range []string{TelemetryFrameDelay, TelemetryQueueDelay, TelemetryNackRTT, TelemetryHandoverInterruption} {
			if strings.HasPrefix(d.Metric, "histogram/"+name) {
				t.Errorf("telemetry histogram leaked into MetricsRegistry: %s", d)
			}
		}
	}
}
