package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"rpivideo/internal/core"
)

// procStart is read as early as a Go program can: setup_s counts from here.
var procStart = time.Now()

// roundStat is one timed round's host-side measurements.
type roundStat struct {
	Seed       int64   `json:"seed"`
	WallS      float64 `json:"wall_s"`
	HostSlow   float64 `json:"host_slowdown,omitempty"` // reference kernel around the round / nominal
	SimS       float64 `json:"sim_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
	Retained   int64   `json:"retained_bytes"`
	Digest     string  `json:"digest"`
}

// reported is one metric's printed form: the value the driver reads, and
// the n per-round (or per-process) samples behind it as median and
// quartiles.
type reported struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// report summarizes samples; the reported value is their median.
func report(name, unit string, samples []float64) reported {
	q1, q2, q3 := quartiles(samples)
	return reported{Name: name, Unit: unit, Value: q2, N: len(samples), Median: q2, Q1: q1, Q3: q3}
}

// passFile is what each per-workload process leaves in the out directory
// for the parent (-selfcheck, -digests) to read.
type passFile struct {
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Scale     float64     `json:"scale"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Failures  []string    `json:"failures,omitempty"`
	SimDigest string      `json:"sim_digest"`
	Notes     []string    `json:"notes,omitempty"`
	Metrics   []reported  `json:"metrics"`
	Rounds    []roundStat `json:"rounds,omitempty"`
}

// opCounter tallies simulated runs attempted and failed.
type opCounter struct {
	attempted, failed int
	failures          []string
}

func (c *opCounter) add(o *roundOut) {
	c.attempted += o.ops
	n := len(o.failures)
	if n > o.ops {
		n = o.ops // several broken identities on one run are one failed run
	}
	c.failed += n
	c.failures = append(c.failures, o.failures...)
}

// timedRound runs one round under the host-side meters. The forced GC
// before the round starts every round from the same heap state; the one
// after it, with the outputs still referenced, measures what the round
// leaves behind for its caller.
func timedRound(w workload, seed int64, sc scale) (roundStat, *roundOut) {
	var before, after, kept runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	out := w.run(seed, sc)
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&kept)
	runtime.KeepAlive(out)
	out.finish()
	sum := sha256.Sum256(out.registry)
	return roundStat{
		Seed:       seed,
		WallS:      wall.Seconds(),
		SimS:       out.simSeconds,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Mallocs:    after.Mallocs - before.Mallocs,
		Retained:   int64(kept.HeapAlloc) - int64(before.HeapAlloc),
		Digest:     hex.EncodeToString(sum[:]),
	}, out
}

// setUp is one timed set-up: the seconds from process start to the end of
// the warm-up round, and the reference kernel timed three times right after
// it.
type setUp struct {
	Seconds float64   `json:"seconds"`
	Kernels []float64 `json:"kernels"`
}

// warmUp is the set-up every pass starts with: build the workload's inputs
// and run one cold round.
func warmUp(w workload, seed int64, sc scale, ops *opCounter) (setUp, *roundOut) {
	out := w.run(core.DeriveSeed(seed, -1), sc)
	su := setUp{Seconds: time.Since(procStart).Seconds()}
	for i := 0; i < 3; i++ {
		su.Kernels = append(su.Kernels, refKernel().Seconds())
	}
	out.finish()
	ops.add(out)
	return su, out
}

// verifiedWarmUp warms up and then re-runs the warm-up round on the same
// seed: a run is a pure function of (Config, Seed), so the registry bytes
// must repeat.
func verifiedWarmUp(w workload, seed int64, sc scale, ops *opCounter) {
	_, first := warmUp(w, seed, sc, ops)
	again := w.run(core.DeriveSeed(seed, -1), sc)
	again.finish()
	if !bytes.Equal(first.registry, again.registry) {
		again.failures = append(again.failures, "same-seed re-run produced different MetricsRegistry JSON")
	}
	ops.add(again)
}

// setupProbe is the child mode behind setup_s: a fresh process that only
// warms up and prints what that took.
func setupProbe(w workload, seed int64, sc scale) error {
	var ops opCounter
	su, _ := warmUp(w, seed, sc, &ops)
	return json.NewEncoder(os.Stdout).Encode(su)
}

// childSetUps times set-up in n fresh processes, one after another.
func childSetUps(o options, n int) ([]setUp, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary for re-exec: %w", err)
	}
	var sus []setUp
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-setup-probe", "-workload", o.workload,
			"-seed", strconv.FormatInt(o.seed, 10), "-scale", strconv.FormatFloat(float64(o.scale), 'g', -1, 64))
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output() // waits for the child to exit
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		var su setUp
		if err := json.Unmarshal(raw, &su); err != nil {
			return nil, fmt.Errorf("setup probe output %q: %w", raw, err)
		}
		sus = append(sus, su)
	}
	return sus, nil
}

// setupSeconds turns a run's set-ups into setup_s samples at nominal host
// speed. The set-ups follow each other within seconds, so they share one
// slowdown: the median of all their kernel timings, which a single set-up's
// three cannot pin down.
func setupSeconds(sus []setUp) []float64 {
	var kernels []float64
	for _, su := range sus {
		kernels = append(kernels, su.Kernels...)
	}
	slow := median(kernels) / refKernelSeconds
	out := make([]float64, len(sus))
	for i, su := range sus {
		out[i] = su.Seconds / slow
	}
	return out
}

// untracedPass measures one workload end to end with tracing off.
//
// The timed rounds cycle through a fixed panel of w.Rounds seeds, so every
// seed is run several times, its repeats a whole panel apart. The reference
// kernel is timed between rounds. See README.md, "How a run is measured".
func untracedPass(w workload, o options) (*passFile, error) {
	var ops opCounter
	first, _ := warmUp(w, o.seed, o.scale, &ops)
	more, err := childSetUps(o, setupSamples-1)
	if err != nil {
		return nil, err
	}
	setups := setupSeconds(append([]setUp{first}, more...))

	if o.cpuprofile != "" {
		stop, err := startCPUProfile(o.cpuprofile, w.Name)
		if err != nil {
			return nil, err
		}
		defer stop()
	}

	panel := o.scale.count(w.Rounds, minRounds)
	passes := fixedPasses
	if o.scale < 1 {
		passes = minPasses
	}
	var rounds []roundStat
	deadline := time.Duration(o.seconds) * time.Second
	start := time.Now()
	kernels := []float64{refKernel().Seconds()} // kernels[r] before round r, kernels[r+1] after it
	for r := 0; ; r++ {
		if o.seconds > 0 {
			if r >= minPasses*panel && time.Since(start) >= deadline {
				break
			}
		} else if r >= passes*panel {
			break
		}
		st, out := timedRound(w, core.DeriveSeed(o.seed, r%panel), o.scale)
		kernels = append(kernels, refKernel().Seconds())
		if r >= panel && st.Digest != rounds[r%panel].Digest {
			// A run is a pure function of (Config, Seed): a repeat must
			// reproduce the registry bytes.
			out.failures = append(out.failures, "same-seed re-run produced different MetricsRegistry JSON")
		}
		ops.add(out)
		rounds = append(rounds, st)
	}
	for r := range rounds {
		rounds[r].HostSlow = hostSlowdown(kernels, r)
	}

	pf := &passFile{Workload: w.Name, Seed: o.seed, Scale: float64(o.scale),
		Attempted: ops.attempted, Failed: ops.failed, Failures: ops.failures, Rounds: rounds}
	// Every seed of the panel counts once, whatever its number of repeats:
	// each quantity is the median over the seed's repeats, the wall time
	// taken at nominal host speed.
	fields := map[string]func(roundStat) float64{
		"sim_s_per_wall_s":         func(st roundStat) float64 { return st.WallS / st.HostSlow },
		"alloc_bytes_per_sim_s":    func(st roundStat) float64 { return float64(st.AllocBytes) },
		"allocs_per_sim_s":         func(st roundStat) float64 { return float64(st.Mallocs) },
		"retained_bytes_per_sim_s": func(st roundStat) float64 { return float64(st.Retained) },
	}
	samples := map[string][]float64{"setup_s": setups}
	pooled := map[string]float64{}
	var panelSim float64
	digest := sha256.New()
	for i := 0; i < panel; i++ {
		panelSim += rounds[i].SimS
		digest.Write([]byte(rounds[i].Digest))
	}
	pf.SimDigest = hex.EncodeToString(digest.Sum(nil))
	for name, field := range fields {
		var sum float64
		for i := 0; i < panel; i++ {
			var repeats []float64
			for r := i; r < len(rounds); r += panel {
				repeats = append(repeats, field(rounds[r]))
			}
			v := median(repeats)
			sum += v
			if name == "sim_s_per_wall_s" {
				samples[name] = append(samples[name], rounds[i].SimS/v)
			} else {
				samples[name] = append(samples[name], v/rounds[i].SimS)
			}
		}
		// The reported value is the pooled ratio over the panel. It weighs
		// every simulated second once, where a median over a small panel
		// jumps between its two middle seeds.
		if name == "sim_s_per_wall_s" {
			pooled[name] = panelSim / sum
		} else {
			pooled[name] = sum / panelSim
		}
	}
	var rawSim, rawWall float64
	slow := make([]float64, len(rounds))
	for r, st := range rounds {
		rawSim += st.SimS
		rawWall += st.WallS
		slow[r] = st.HostSlow
	}
	pf.Notes = append(pf.Notes, fmt.Sprintf("uncorrected: %.6g sim_s per wall_s over %d rounds; host slowdown median %.3f (reference kernel %.0f ms nominal)",
		rawSim/rawWall, len(rounds), median(slow), refKernelSeconds*1e3))
	for _, m := range endToEnd {
		rep := report(m.Name, m.Unit, samples[m.Name]) // setup_s reports its median
		if v, ok := pooled[m.Name]; ok {
			rep.Value = v
		}
		pf.Metrics = append(pf.Metrics, rep)
	}
	return pf, nil
}

// startCPUProfile writes one pprof per workload under dir, which is
// expected to lie outside the repository tree.
func startCPUProfile(dir, workload string) (stop func(), err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, workload+".pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: closing cpu profile:", err)
		}
	}, nil
}

// printPass prints a pass for people, then the one JSON line the driver
// reads last.
func printPass(pf *passFile, pass string) error {
	fmt.Printf("== %s  %s pass  seed %d  scale %g ==\n", pf.Workload, pass, pf.Seed, pf.Scale)
	fmt.Printf("operations: attempted %d, failed %d\n", pf.Attempted, pf.Failed)
	for _, f := range pf.Failures {
		fmt.Println("  FAILED:", f)
	}
	if pf.SimDigest != "" {
		fmt.Printf("sim_digest %s (the seed panel; %d rounds ran)\n", pf.SimDigest, len(pf.Rounds))
	}
	for _, n := range pf.Notes {
		fmt.Println(n)
	}
	if n := len(pf.Rounds); n > 0 {
		walls := make([]float64, n)
		for i, st := range pf.Rounds {
			walls[i] = st.WallS
		}
		// A tail is reported only while ten samples lie beyond it.
		tail := highestPercentile(n)
		fmt.Printf("round wall: n %d, median %.4f s, p%g %.4f s, iqr/median %.4f\n",
			n, median(walls), tail, percentile(walls, tail), iqrShare(walls))
	}
	fmt.Printf("%-34s %-8s %16s %4s %14s %14s %14s\n", "metric", "unit", "value", "n", "median", "q1", "q3")
	for _, m := range pf.Metrics {
		fmt.Printf("%-34s %-8s %16.6g %4d %14.6g %14.6g %14.6g\n", m.Name, m.Unit, m.Value, m.N, m.Median, m.Q1, m.Q3)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: pf.Failed == 0, Attempted: pf.Attempted, Failed: pf.Failed, Metrics: map[string]val{}}
	for _, m := range pf.Metrics {
		line.Metrics[m.Name] = val{Value: m.Value, Unit: m.Unit}
	}
	raw, err := json.Marshal(line) // fails on a NaN or infinite metric
	if err != nil {
		return fmt.Errorf("%s: result line: %w", pf.Workload, err)
	}
	fmt.Println(string(raw))
	return nil
}

// writePassFile leaves the pass where the parent process looks for it.
func writePassFile(dir, pass string, pf *passFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, pf.Workload+"."+pass+".json"), append(raw, '\n'), 0o644)
}
