package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The untraced pass times set-up in fresh processes of its own binary.
// Under go test that binary is the test binary, so a child marked with
// this variable runs the benchmark's main instead of the tests.
const asMainEnv = "RPIVIDEO_BENCH_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func checkMetrics(t *testing.T, pf *passFile, defs []metricDef) map[string]float64 {
	t.Helper()
	got := make(map[string]float64)
	if len(pf.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d defined", pf.Workload, len(pf.Metrics), len(defs))
	}
	for i, d := range defs {
		if i >= len(pf.Metrics) {
			break
		}
		m := pf.Metrics[i]
		if m.Name != d.Name {
			t.Errorf("%s: metric %d is %q, want %q", pf.Workload, i, m.Name, d.Name)
		}
		if !metricName.MatchString(m.Name) {
			t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", pf.Workload, m.Name)
		}
		if m.Unit == "" || m.Unit != d.Unit {
			t.Errorf("%s: %s carries unit %q, want %q", pf.Workload, m.Name, m.Unit, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v is not finite", pf.Workload, m.Name, m.Value)
		}
		got[m.Name] = m.Value
	}
	return got
}

// TestSmoke runs all five workloads through both passes at a fiftieth of
// their size and checks that every named metric comes out, finite and
// with its unit.
func TestSmoke(t *testing.T) {
	t.Setenv(asMainEnv, "1")
	out := t.TempDir()
	for _, w := range workloads {
		o := options{workload: w.Name, seed: defaultSeed, scale: 0.02, out: out, appendSpans: true}
		pf, err := untracedPass(w, o)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.Name, err)
		}
		if pf.Failed != 0 || pf.Attempted < 1 {
			t.Errorf("%s untraced: %d of %d operations failed: %v", w.Name, pf.Failed, pf.Attempted, pf.Failures)
		}
		e2e := checkMetrics(t, pf, endToEnd)
		for _, d := range endToEnd {
			if e2e[d.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want above zero", w.Name, d.Name, e2e[d.Name])
			}
		}
		if len(pf.SimDigest) != 64 || len(pf.Rounds) < minRounds {
			t.Errorf("%s: digest %q over %d rounds", w.Name, pf.SimDigest, len(pf.Rounds))
		}

		o.trace = 1
		pf, err = tracedPass(w, o)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if pf.Failed != 0 {
			t.Errorf("%s traced: %d of %d operations failed: %v", w.Name, pf.Failed, pf.Attempted, pf.Failures)
		}
		layer := checkMetrics(t, pf, perLayer)
		for _, name := range []string{"sim.events", "link.pkts", "rtp.pkts", "video.frames_encoded", "obs.trace_events", "core.peak_rss_mb"} {
			if layer[name] <= 0 {
				t.Errorf("%s: %s = %v, want above zero", w.Name, name, layer[name])
			}
		}
		if layer["dist.reissues"] != 0 {
			t.Errorf("%s: dist re-issued %v leases on healthy in-process workers", w.Name, layer["dist.reissues"])
		}
		// Each workload's own layers did work; the layers it bypasses did none.
		for name, want := range map[string]bool{
			"gcc.acks":        w.Name == "flight-gcc" || w.Name == "flight-resilient" || w.Name == "sweep-observed",
			"scream.acks":     w.Name == "flight-scream",
			"bond.routes":     w.Name == "flight-resilient",
			"repair.pkts":     w.Name == "flight-resilient" || w.Name == "sweep-observed",
			"dist.sweep_s":    w.Name == "sweep-observed",
			"cell.contend_s":  w.Name == "fleet-contend",
			"core.fleet_s":    w.Name == "fleet-contend",
			"core.campaign_s": w.Name == "sweep-observed",
		} {
			if (layer[name] > 0) != want {
				t.Errorf("%s: %s = %v, want above zero: %v", w.Name, name, layer[name], want)
			}
		}
		if w.Name == "fleet-contend" && layer["cell.contend_epochs"] < 0 {
			t.Error("fleet-contend: the rebuilt attachment timelines do not reproduce the fleet's own contention fold")
		}
	}

	// Every workload's spans landed in one file, each under a root.
	f, err := os.Open(filepath.Join(out, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := make(map[string]int)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("spans.jsonl: %v", err)
		}
		if s.EndNs < s.StartNs || s.Layer == "" || s.Op == "" {
			t.Fatalf("malformed span %+v", s)
		}
		seen[s.Workload]++
	}
	for _, w := range workloads {
		if seen[w.Name] < 10 {
			t.Errorf("spans.jsonl holds %d spans of %s", seen[w.Name], w.Name)
		}
	}
}

// benchmarkJSON mirrors the contract's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONInStep keeps BENCHMARK.json and the tables this package
// reports from saying the same thing.
func TestBenchmarkJSONInStep(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the benchmark has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if g := b.EndToEnd[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the benchmark %+v", i, g, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the benchmark has %d", len(b.PerLayer), len(perLayer))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	names := make(map[string]bool)
	for i, m := range perLayer {
		if g := b.PerLayer[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the benchmark %+v", i, g, m)
		}
		if names[m.Name] || !metricName.MatchString(m.Name) || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("per-layer metric %q (unit %q) is repeated or out of the contract's limits", m.Name, m.Unit)
		}
		names[m.Name] = true
	}
}
