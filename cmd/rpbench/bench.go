package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"rpivideo/internal/core"
	"rpivideo/internal/experiments"
)

// runBenchStats is the BENCH_run.json payload: raw event-loop throughput of
// one scenario, measured over untraced repetitions. The headline number is
// SimPerWall — simulated seconds executed per wall-clock second — because it
// is what bounds campaign turnaround and is comparable across scenarios of
// different lengths.
type runBenchStats struct {
	Scenario string `json:"scenario"`
	// DurationSeconds is the simulated length of each repetition (the
	// scenario's configured duration, or the -benchdur override).
	DurationSeconds float64 `json:"duration_seconds"`
	// Runs is the number of untraced repetitions timed.
	Runs int `json:"runs"`
	// SimSeconds is the total simulated time executed; WallSeconds the
	// wall-clock time it took.
	SimSeconds  float64 `json:"sim_seconds"`
	WallSeconds float64 `json:"wall_seconds"`
	SimPerWall  float64 `json:"sim_seconds_per_wall_second"`
	// AllocBytesPerRun and AllocsPerRun are the per-repetition allocation
	// volume and object count (runtime deltas averaged over the timed
	// repetitions).
	AllocBytesPerRun uint64 `json:"alloc_bytes_per_run"`
	AllocsPerRun     uint64 `json:"allocs_per_run"`
}

// benchScenario measures the untraced event-loop speed of a scenario, writes
// the stats to outPath, and, when comparePath is set, gates against the
// baseline's sim_seconds_per_wall_second. slow reports a gate failure
// (already printed); err covers everything else.
//
// The measurement deliberately disables tracing: the benchmark tracks the
// simulation hot path, and the -compare metrics gate separately pins that
// traced results stay byte-identical.
func benchScenario(sc experiments.Scenario, seed int64, dur time.Duration, minSeconds float64, outPath, comparePath string, tolerance float64) (slow bool, err error) {
	cfg := sc.Config
	cfg.Trace = false
	if dur > 0 {
		cfg.Duration = dur
	}
	if seed != 0 && seed != 1 {
		cfg.Seed = seed
	}
	if minSeconds <= 0 {
		minSeconds = 1.5
	}

	core.Run(cfg) // warm-up: page in code, grow pools, steady-state the GC

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runs := 0
	start := time.Now()
	var wall time.Duration
	for {
		core.Run(cfg)
		runs++
		wall = time.Since(start)
		if wall.Seconds() >= minSeconds && runs >= 3 {
			break
		}
	}
	runtime.ReadMemStats(&after)

	st := runBenchStats{
		Scenario:        sc.Name,
		DurationSeconds: cfg.Duration.Seconds(),
		Runs:            runs,
		SimSeconds:      cfg.Duration.Seconds() * float64(runs),
		WallSeconds:     wall.Seconds(),
	}
	if st.WallSeconds > 0 {
		st.SimPerWall = st.SimSeconds / st.WallSeconds
	}
	st.AllocBytesPerRun = (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
	st.AllocsPerRun = (after.Mallocs - before.Mallocs) / uint64(runs)

	if err := writeFileWith(outPath, func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(&st)
	}); err != nil {
		return false, err
	}
	fmt.Fprintf(os.Stderr, "rpbench: %s: %d runs, %.1f sim-s in %.2f wall-s = %.0f sim-s/wall-s, wrote %s\n",
		sc.Name, st.Runs, st.SimSeconds, st.WallSeconds, st.SimPerWall, outPath)

	if comparePath == "" {
		return false, nil
	}
	base, err := readRunBench(comparePath)
	if err != nil {
		return false, err
	}
	if base.Scenario != st.Scenario {
		return false, fmt.Errorf("benchcompare: baseline %s is for scenario %q, not %q", comparePath, base.Scenario, st.Scenario)
	}
	floor := base.SimPerWall * (1 - tolerance)
	if st.SimPerWall < floor {
		fmt.Fprintf(os.Stderr, "rpbench: perf regression: %.0f sim-s/wall-s is below the gate floor %.0f (baseline %.0f, tolerance %.2f)\n",
			st.SimPerWall, floor, base.SimPerWall, tolerance)
		return true, nil
	}
	fmt.Fprintf(os.Stderr, "rpbench: perf gate ok: %.0f sim-s/wall-s >= floor %.0f (baseline %.0f, tolerance %.2f)\n",
		st.SimPerWall, floor, base.SimPerWall, tolerance)
	return false, nil
}

// fleetBenchStats is the BENCH_fleet.json payload: throughput of a whole
// fleet execution. SimSeconds counts every UAV's simulated time (fleet size
// × duration × repetitions), so SimPerWall is directly comparable to the
// single-run BENCH_run.json number — it is the aggregate simulation volume
// the process sustains per wall-clock second.
type fleetBenchStats struct {
	Scenario        string  `json:"scenario"`
	FleetSize       int     `json:"fleet_size"`
	Scheduler       string  `json:"scheduler"`
	DurationSeconds float64 `json:"duration_seconds"`
	Runs            int     `json:"runs"`
	SimSeconds      float64 `json:"sim_seconds"`
	WallSeconds     float64 `json:"wall_seconds"`
	SimPerWall      float64 `json:"sim_seconds_per_wall_second"`
}

// benchFleet measures full-fleet throughput (all three phases: attach
// replay, contention fold, contended runs) over repeated executions and
// writes the stats to outPath. Events are disabled: the benchmark tracks
// the simulation hot path, as benchScenario does for single runs.
func benchFleet(sc experiments.Scenario, seed int64, dur time.Duration, minSeconds float64, outPath string) error {
	cfg := sc.Config
	if dur > 0 {
		cfg.Duration = dur
	}
	if seed != 0 && seed != 1 {
		cfg.Seed = seed
	}
	if minSeconds <= 0 {
		minSeconds = 1.5
	}
	fc := core.FleetConfig{Config: cfg, Size: sc.Fleet, Sched: sc.Sched}
	runOnce := func() error {
		_, errs := core.RunFleet(fc)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	if err := runOnce(); err != nil { // warm-up, as in benchScenario
		return err
	}
	runs := 0
	start := time.Now()
	var wall time.Duration
	for {
		if err := runOnce(); err != nil {
			return err
		}
		runs++
		wall = time.Since(start)
		if wall.Seconds() >= minSeconds && runs >= 2 {
			break
		}
	}

	st := fleetBenchStats{
		Scenario:        sc.Name,
		FleetSize:       sc.Fleet,
		Scheduler:       sc.Sched.String(),
		DurationSeconds: cfg.Duration.Seconds(),
		Runs:            runs,
		SimSeconds:      float64(sc.Fleet) * cfg.Duration.Seconds() * float64(runs),
		WallSeconds:     wall.Seconds(),
	}
	if st.WallSeconds > 0 {
		st.SimPerWall = st.SimSeconds / st.WallSeconds
	}
	if err := writeFileWith(outPath, func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(&st)
	}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rpbench: fleet %s ×%d (%s): %d runs, %.0f sim-s in %.2f wall-s = %.0f sim-s/wall-s, wrote %s\n",
		sc.Name, st.FleetSize, st.Scheduler, st.Runs, st.SimSeconds, st.WallSeconds, st.SimPerWall, outPath)
	return nil
}

// readRunBench loads a BENCH_run.json baseline.
func readRunBench(path string) (runBenchStats, error) {
	var st runBenchStats
	f, err := os.Open(path)
	if err != nil {
		return st, err
	}
	defer f.Close()
	if err := json.NewDecoder(f).Decode(&st); err != nil {
		return st, fmt.Errorf("benchcompare: %s: %w", path, err)
	}
	return st, nil
}
