package core

import (
	"testing"
	"time"

	"rpivideo/internal/cell"
)

// short runs a truncated flight for fast structural tests.
func short(cfg Config) *Result {
	if cfg.Duration == 0 {
		cfg.Duration = 60 * time.Second
	}
	return Run(cfg)
}

func TestRunProducesAllMetrics(t *testing.T) {
	r := short(Config{Env: cell.Urban, Air: true, CC: CCGCC, Seed: 1})
	if r.OWDms.N() == 0 {
		t.Error("no one-way delay samples")
	}
	if r.Goodput.N() == 0 {
		t.Error("no goodput samples")
	}
	if r.FPS.N() == 0 || r.PlaybackMs.N() == 0 || r.SSIM.N() == 0 {
		t.Error("missing video distributions")
	}
	if r.PacketsSent == 0 || r.PacketsDelivered == 0 {
		t.Errorf("packet counters: sent=%d delivered=%d", r.PacketsSent, r.PacketsDelivered)
	}
	if r.FramesPlayed == 0 {
		t.Error("no frames played")
	}
	if r.Duration != 60*time.Second {
		t.Errorf("duration = %v", r.Duration)
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := Config{Env: cell.Urban, Air: true, CC: CCSCReAM, Seed: 42, Duration: 45 * time.Second}
	a, b := Run(cfg), Run(cfg)
	if a.PacketsSent != b.PacketsSent || a.PacketsDelivered != b.PacketsDelivered ||
		a.FramesPlayed != b.FramesPlayed || a.ScreamLosses != b.ScreamLosses ||
		len(a.Handovers) != len(b.Handovers) {
		t.Errorf("same-seed runs differ: %+v vs %+v",
			[]int{a.PacketsSent, a.FramesPlayed, a.ScreamLosses},
			[]int{b.PacketsSent, b.FramesPlayed, b.ScreamLosses})
	}
	if a.GoodputMean() != b.GoodputMean() {
		t.Errorf("goodput differs: %v vs %v", a.GoodputMean(), b.GoodputMean())
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := short(Config{Env: cell.Urban, Air: true, CC: CCGCC, Seed: 1})
	b := short(Config{Env: cell.Urban, Air: true, CC: CCGCC, Seed: 2})
	if a.PacketsSent == b.PacketsSent && a.OWDms.Mean() == b.OWDms.Mean() {
		t.Error("different seeds produced identical runs")
	}
}

func TestPingWorkload(t *testing.T) {
	r := Run(Config{Env: cell.Urban, Air: true, Workload: WorkloadPing, Seed: 5})
	if r.RTTms.N() == 0 {
		t.Fatal("no RTT samples")
	}
	if r.RTTms.Median() < 30 || r.RTTms.Median() > 120 {
		t.Errorf("median RTT = %.0f ms, want ≈35–70", r.RTTms.Median())
	}
	// The flight dwells at all altitudes, so every bucket gets samples.
	for b := 0; b < int(altBuckets); b++ {
		if r.RTTByAlt[b].N() == 0 {
			t.Errorf("altitude bucket %v has no samples", AltBucket(b))
		}
	}
	// No video metrics for ping runs.
	if r.FPS.N() != 0 {
		t.Error("ping run produced FPS samples")
	}
}

func TestAltitudeBuckets(t *testing.T) {
	cases := []struct {
		alt  float64
		want AltBucket
	}{{0, Alt0to20}, {20, Alt0to20}, {21, Alt21to60}, {60, Alt21to60}, {100, Alt61to100}, {120, Alt101to140}}
	for _, c := range cases {
		if got := BucketFor(c.alt); got != c.want {
			t.Errorf("BucketFor(%v) = %v, want %v", c.alt, got, c.want)
		}
	}
}

func TestConfigLabelsAndDefaults(t *testing.T) {
	c := Config{Env: cell.Rural, Op: cell.P2, Air: true, CC: CCSCReAM}
	if got := c.Label(); got != "rural-P2-air-scream" {
		t.Errorf("Label = %q", got)
	}
	if got := (Config{Env: cell.Urban}).staticRate(); got != 25e6 {
		t.Errorf("urban static rate = %v", got)
	}
	if got := (Config{Env: cell.Rural}).staticRate(); got != 8e6 {
		t.Errorf("rural static rate = %v", got)
	}
	if got := (Config{StaticRate: 5e6}).staticRate(); got != 5e6 {
		t.Errorf("explicit static rate = %v", got)
	}
}

func TestMergeAggregates(t *testing.T) {
	cfg := Config{Env: cell.Urban, Air: true, CC: CCStatic, Seed: 7, Duration: 30 * time.Second}
	rs := campaign(t, cfg, 3)
	if len(rs) != 3 {
		t.Fatalf("campaign returned %d results", len(rs))
	}
	m := Summarize(rs)
	wantN := rs[0].OWDms.N() + rs[1].OWDms.N() + rs[2].OWDms.N()
	if m.OWDms.N() != wantN {
		t.Errorf("merged OWD samples = %d, want %d", m.OWDms.N(), wantN)
	}
	if m.Duration != 90*time.Second {
		t.Errorf("merged duration = %v", m.Duration)
	}
	wantHO := len(rs[0].Handovers) + len(rs[1].Handovers) + len(rs[2].Handovers)
	if m.Handovers != wantHO {
		t.Errorf("merged handovers = %d, want %d", m.Handovers, wantHO)
	}
	if Summarize(nil).OWDms.N() != 0 {
		t.Error("empty merge should be empty")
	}
}

func TestCampaignSeedsDistinct(t *testing.T) {
	cfg := Config{Env: cell.Rural, Air: true, CC: CCStatic, Seed: 9, Duration: 20 * time.Second}
	rs := campaign(t, cfg, 2)
	if rs[0].PacketsSent == rs[1].PacketsSent && rs[0].OWDms.Mean() == rs[1].OWDms.Mean() {
		t.Error("campaign runs look identical; seeds not derived")
	}
}

// --- Calibration: the headline shapes of the paper's evaluation. These use
// full-length flights with a handful of seeds; see EXPERIMENTS.md for the
// full paper-vs-measured record.

// campaign runs a campaign and fails the test on any run's error.
func campaign(t *testing.T, cfg Config, runs int) []*Result {
	t.Helper()
	rs, errs := RunCampaignWithOptions(cfg, runs, CampaignOptions{})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return rs
}

func merged(t *testing.T, cfg Config, runs int) *Summary {
	t.Helper()
	return Summarize(campaign(t, cfg, runs))
}

func TestShapeFig6UrbanGoodputOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full flights")
	}
	static := merged(t, Config{Env: cell.Urban, Air: true, CC: CCStatic, Seed: 11}, 3)
	gcc := merged(t, Config{Env: cell.Urban, Air: true, CC: CCGCC, Seed: 11}, 3)
	scream := merged(t, Config{Env: cell.Urban, Air: true, CC: CCSCReAM, Seed: 11}, 3)
	t.Logf("urban goodput: static %.1f, scream %.1f, gcc %.1f (paper: 25, 21, 19)",
		static.GoodputMean(), scream.GoodputMean(), gcc.GoodputMean())
	if !(static.GoodputMean() > scream.GoodputMean() && scream.GoodputMean() > gcc.GoodputMean()) {
		t.Errorf("urban ordering violated: static %.1f, scream %.1f, gcc %.1f",
			static.GoodputMean(), scream.GoodputMean(), gcc.GoodputMean())
	}
	if static.GoodputMean() < 23 || static.GoodputMean() > 27 {
		t.Errorf("urban static goodput %.1f, want ≈25", static.GoodputMean())
	}
	if gcc.GoodputMean() < 14 {
		t.Errorf("urban GCC goodput %.1f, want near the paper's 19", gcc.GoodputMean())
	}
}

func TestShapeFig6RuralScreamBest(t *testing.T) {
	if testing.Short() {
		t.Skip("full flights")
	}
	static := merged(t, Config{Env: cell.Rural, Air: true, CC: CCStatic, Seed: 13}, 3)
	scream := merged(t, Config{Env: cell.Rural, Air: true, CC: CCSCReAM, Seed: 13}, 3)
	t.Logf("rural goodput: scream %.1f, static %.1f (paper: 10.5 vs 8)",
		scream.GoodputMean(), static.GoodputMean())
	if scream.GoodputMean() <= static.GoodputMean() {
		t.Errorf("rural: SCReAM (%.1f) should out-utilize static (%.1f) under fluctuating capacity",
			scream.GoodputMean(), static.GoodputMean())
	}
	if static.GoodputMean() < 7 || static.GoodputMean() > 9 {
		t.Errorf("rural static goodput %.1f, want ≈8", static.GoodputMean())
	}
}

func TestShapeFig7cScreamUrbanLatencyCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("full flights")
	}
	gcc := merged(t, Config{Env: cell.Urban, Air: true, CC: CCGCC, Seed: 17}, 2)
	scream := merged(t, Config{Env: cell.Urban, Air: true, CC: CCSCReAM, Seed: 17}, 2)
	gccOK := gcc.PlaybackMs.FracBelow(300)
	scrOK := scream.PlaybackMs.FracBelow(300)
	t.Logf("urban playback<300ms: gcc %.0f%%, scream %.0f%% (paper: ≈90%% vs ≈38%%)", 100*gccOK, 100*scrOK)
	if gccOK < 0.65 {
		t.Errorf("urban GCC playback<300ms = %.0f%%, want high", 100*gccOK)
	}
	if scrOK > gccOK-0.2 {
		t.Errorf("urban SCReAM (%.0f%%) must be far below GCC (%.0f%%)", 100*scrOK, 100*gccOK)
	}
}

func TestShapePERBand(t *testing.T) {
	if testing.Short() {
		t.Skip("full flights")
	}
	r := merged(t, Config{Env: cell.Urban, Air: true, CC: CCStatic, Seed: 19}, 3)
	t.Logf("PER = %.4f%% (paper: 0.06–0.07%%)", 100*r.PER)
	if r.PER < 0.0002 || r.PER > 0.0015 {
		t.Errorf("PER %.5f outside the paper's band", r.PER)
	}
}

func TestShapeRampUp(t *testing.T) {
	if testing.Short() {
		t.Skip("full flights")
	}
	// Measured on the ground in the urban cell (stable, abundant capacity).
	gcc := Run(Config{Env: cell.Urban, Air: false, CC: CCGCC, Seed: 23, Duration: 60 * time.Second})
	scream := Run(Config{Env: cell.Urban, Air: false, CC: CCSCReAM, Seed: 23, Duration: 60 * time.Second})
	t.Logf("ramp-up to 25 Mbps: gcc %v, scream %v (paper: ≈12 s vs ≈25 s)", gcc.RampUpTo25, scream.RampUpTo25)
	if gcc.RampUpTo25 == 0 {
		t.Error("GCC never ramped to 25 Mbps on the ground")
	}
	if scream.RampUpTo25 == 0 {
		t.Error("SCReAM never ramped to 25 Mbps on the ground")
	}
	if gcc.RampUpTo25 != 0 && scream.RampUpTo25 != 0 && scream.RampUpTo25 <= gcc.RampUpTo25 {
		t.Errorf("SCReAM ramp (%v) should be slower than GCC (%v)", scream.RampUpTo25, gcc.RampUpTo25)
	}
}

func TestShapeHandoverRateAirVsGround(t *testing.T) {
	if testing.Short() {
		t.Skip("full flights")
	}
	air := merged(t, Config{Env: cell.Urban, Air: true, CC: CCStatic, Seed: 29}, 3)
	grd := merged(t, Config{Env: cell.Urban, Air: false, CC: CCStatic, Seed: 29}, 3)
	t.Logf("HO/s: air %.3f, ground %.3f", air.HandoverRate(), grd.HandoverRate())
	if air.HandoverRate() < 4*grd.HandoverRate() {
		t.Errorf("air HO rate (%.3f) should be far above ground (%.3f)", air.HandoverRate(), grd.HandoverRate())
	}
}

func TestRTCPReportsProduceMetrics(t *testing.T) {
	r := short(Config{Env: cell.Urban, Air: true, CC: CCStatic, Seed: 13})
	if r.JitterMs.N() < 30 {
		t.Errorf("jitter samples = %d, want ≈ one per second", r.JitterMs.N())
	}
	if r.JitterMs.Median() <= 0 || r.JitterMs.Median() > 100 {
		t.Errorf("median interarrival jitter = %.2f ms, implausible", r.JitterMs.Median())
	}
	if r.RTCPRTTms.N() < 30 {
		t.Errorf("RTCP RTT samples = %d", r.RTCPRTTms.N())
	}
	// RTT ≈ uplink base (22) + downlink base (13) plus queueing: the
	// median should sit in the few-tens-of-ms band the paper reports
	// (lowest RTT ≈ 35 ms).
	if med := r.RTCPRTTms.Median(); med < 30 || med > 150 {
		t.Errorf("median RTCP RTT = %.0f ms, want ≈35–100", med)
	}
}
