package core

import (
	"testing"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
)

// benchResults runs one short campaign once, so the aggregation benchmark
// measures folding, not simulation.
func benchResults(b *testing.B) []*Result {
	b.Helper()
	cfg := Config{Env: cell.Urban, Air: true, CC: CCGCC, Seed: 5, Duration: 20 * time.Second}
	results, errs := RunCampaignWithOptions(cfg, 4, CampaignOptions{})
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	return results
}

// BenchmarkAggregateSketch folds a campaign into the O(buckets) Summary —
// the path the experiment suite's campaigns and fleets aggregate on.
func BenchmarkAggregateSketch(b *testing.B) {
	results := benchResults(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Summarize(results).Runs != len(results) {
			b.Fatal("a run was not folded")
		}
	}
}

// benchRun benchmarks one untraced run configuration and reports simulated
// seconds per wall second as a custom metric — the number that bounds
// campaign turnaround (bench/ measures the same metric end to end).
func benchRun(b *testing.B, cfg Config) {
	b.ReportAllocs()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		Run(cfg)
	}
	wall := time.Since(start).Seconds()
	if wall > 0 {
		b.ReportMetric(cfg.Duration.Seconds()*float64(b.N)/wall, "sim-s/wall-s")
	}
}

// BenchmarkRunUrbanGCC is the headline packet-path benchmark: a 30 s urban
// GCC run at steady state.
func BenchmarkRunUrbanGCC(b *testing.B) {
	benchRun(b, Config{Env: cell.Urban, Op: cell.P1, CC: CCGCC, Seed: 1, Duration: 30 * time.Second})
}

// BenchmarkRunUrbanGCCFaults covers the fault path — outage windows, queue
// flushing, repair timers and their cancellation — which stresses the
// timer-pool Stop/remove machinery of the event loop.
func BenchmarkRunUrbanGCCFaults(b *testing.B) {
	benchRun(b, Config{
		Env: cell.Urban, Op: cell.P1, CC: CCGCC, Seed: 1, Duration: 30 * time.Second,
		Faults: fault.Config{
			Windows:          []fault.Window{{Start: 10 * time.Second, Duration: 2 * time.Second, Dir: fault.Both}},
			Watchdog:         true,
			KeyframeRecovery: true,
		},
	})
}

// BenchmarkRunRuralSCReAM covers the second controller and environment.
func BenchmarkRunRuralSCReAM(b *testing.B) {
	benchRun(b, Config{Env: cell.Rural, Op: cell.P1, CC: CCSCReAM, Seed: 1, Duration: 30 * time.Second})
}

// BenchmarkDedup is one packet of a duplicate-policy bonded stream through
// the deduplicator: the first copy, then the slower path's copy three
// packets behind, the 16-bit sequence wrapping every 65 536 packets.
// TestDedupMemoryHardBound pins its allocations at zero.
func BenchmarkDedup(b *testing.B) {
	d := newMultipathDedup()
	for i := 0; i < 2*dedupHorizon; i++ { // past the horizon: the cursor is moving
		duplicate(d, uint16(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	fresh := 0
	for i := 2 * dedupHorizon; i < 2*dedupHorizon+b.N; i++ {
		if !duplicate(d, uint16(i)) {
			fresh++
		}
		if !duplicate(d, uint16(i-3)) {
			fresh++
		}
	}
	if fresh != b.N {
		b.Fatalf("%d fresh packets of %d", fresh, b.N)
	}
}
