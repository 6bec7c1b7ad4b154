package core_test

import (
	"testing"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/core"
	"rpivideo/internal/experiments"
)

// TestGoldenSketchesMatchRawSamples is the differential test of the one
// recorded distribution: for every golden scenario, every run's sketches —
// filled as samples arrive, never from a retained sample list — equal the
// sketches its raw samples build, taken from the test-only tap and, for
// FPS, PlaybackMs and SSIM, from the player's frame list. Exact samples,
// bucket counts, N, extremes and Sum must all be equal.
func TestGoldenSketchesMatchRawSamples(t *testing.T) {
	for _, sc := range experiments.Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			tp := core.InstallTap(t)
			runs := sc.Runs
			var err error
			if sc.Fleet > 0 {
				runs = sc.Fleet
				_, err = experiments.RunFleetScenarioWithOptions(sc, experiments.ScenarioOptions{})
			} else {
				_, err = experiments.RunScenarioWithOptions(sc, experiments.ScenarioOptions{})
			}
			if err != nil {
				t.Fatal(err)
			}
			results := tp.Results()
			if len(results) != runs {
				t.Fatalf("tapped %d runs, want %d", len(results), runs)
			}
			samples := 0
			for _, r := range results {
				samples += tp.CheckSketches(t, r)
			}
			if samples < 1000*runs {
				t.Errorf("only %d samples over %d runs: the comparison is nearly vacuous", samples, runs)
			}
		})
	}
}

// TestFlightSketchesStayBucketSized: a Result holds no per-sample slices. A
// 360 s urban GCC flight records about 1.5 million samples, and every
// one of its distributions keeps at most a window of buckets.
func TestFlightSketchesStayBucketSized(t *testing.T) {
	if testing.Short() {
		t.Skip("a full flight")
	}
	r := core.Run(core.Config{Env: cell.Urban, Air: true, CC: core.CCGCC, Seed: 7, Duration: 360 * time.Second})
	samples, cells := 0, 0
	for name, d := range core.ResultSketches(r) {
		samples += d.N()
		cells += d.Buckets()
		if d.Buckets() > 2048 {
			t.Errorf("%s keeps %d cells for %d samples", name, d.Buckets(), d.N())
		}
	}
	t.Logf("%d samples in %d retained cells", samples, cells)
	if r.OWDms.N() < 500_000 {
		t.Fatalf("only %d OWD samples: not the per-packet flight this test is about", r.OWDms.N())
	}
	if 100*cells > samples {
		t.Errorf("%d cells for %d samples: retention grows with the sample count", cells, samples)
	}
}
