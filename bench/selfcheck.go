package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// readPassFile loads what a per-workload process left behind.
func readPassFile(dir, workload, pass string) (*passFile, error) {
	raw, err := os.ReadFile(filepath.Join(dir, workload+"."+pass+".json"))
	if err != nil {
		return nil, err
	}
	var pf passFile
	if err := json.Unmarshal(raw, &pf); err != nil {
		return nil, fmt.Errorf("%s %s pass file: %w", workload, pass, err)
	}
	return &pf, nil
}

// selfcheckRow compares one workload × end-to-end metric across two passes
// of the same code.
type selfcheckRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	RelDiff  float64 `json:"rel_diff"`
	Bound    float64 `json:"bound"`
	OK       bool    `json:"ok"`
}

// runSelfcheck runs the untraced pass twice, each workload in a fresh
// process both times, and fails when two runs of the same code disagree by
// more than the bound a later change is held to.
func runSelfcheck(o options) error {
	o.trace = 0
	var passes [2]map[string]*passFile
	for i := range passes {
		if err := runAll(o); err != nil {
			return err
		}
		passes[i] = make(map[string]*passFile)
		for _, w := range workloads {
			pf, err := readPassFile(o.out, w.Name, "untraced")
			if err != nil {
				return err
			}
			passes[i][w.Name] = pf
		}
	}
	var rows []selfcheckRow
	bad := 0
	fmt.Printf("== selfcheck: two untraced passes of the same code ==\n")
	fmt.Printf("%-18s %-26s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "rel_diff", "bound")
	for _, w := range workloads {
		a, b := passes[0][w.Name], passes[1][w.Name]
		for i, m := range endToEnd {
			row := selfcheckRow{Workload: w.Name, Metric: m.Name, Unit: m.Unit,
				First: a.Metrics[i].Value, Second: b.Metrics[i].Value, Bound: m.Bound}
			if row.First != 0 {
				row.RelDiff = math.Abs(row.Second-row.First) / math.Abs(row.First)
			}
			row.OK = row.RelDiff <= m.Bound
			mark := ""
			if !row.OK {
				mark = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Printf("%-18s %-26s %14.6g %14.6g %9.4f %7.2f%s\n", w.Name, m.Name, row.First, row.Second, row.RelDiff, m.Bound, mark)
			rows = append(rows, row)
		}
		if a.SimDigest != b.SimDigest {
			fmt.Printf("%-18s sim_digest differs between the passes (%d vs %d rounds)\n", w.Name, len(a.Rounds), len(b.Rounds))
		}
	}
	raw, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, "selfcheck.json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d workload × metric pair(s) disagree by more than their bound", bad)
	}
	return nil
}

// savedDigests is the -digests file: per workload, the digest of each
// round's registry JSON in round order.
type savedDigests struct {
	Seed      int64               `json:"seed"`
	Scale     float64             `json:"scale"`
	Workloads map[string][]string `json:"workloads"`
}

// checkDigests compares this pass's per-round digests with a saved set, or
// saves them when the file does not exist yet. Simulated statistics are
// deterministic, so a speed-only change must leave every digest alone.
func checkDigests(o options) error {
	now := savedDigests{Seed: o.seed, Scale: float64(o.scale), Workloads: map[string][]string{}}
	for _, w := range workloads {
		pf, err := readPassFile(o.out, w.Name, "untraced")
		if err != nil {
			return err
		}
		for _, r := range pf.Rounds {
			now.Workloads[w.Name] = append(now.Workloads[w.Name], r.Digest)
		}
	}
	raw, err := os.ReadFile(o.digests)
	if os.IsNotExist(err) {
		out, err := json.MarshalIndent(now, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("digests: saved %d workloads to %s\n", len(now.Workloads), o.digests)
		return os.WriteFile(o.digests, append(out, '\n'), 0o644)
	}
	if err != nil {
		return err
	}
	var old savedDigests
	if err := json.Unmarshal(raw, &old); err != nil {
		return fmt.Errorf("%s: %w", o.digests, err)
	}
	if old.Seed != now.Seed || old.Scale != now.Scale {
		return fmt.Errorf("digests: %s was saved at seed %d scale %g, this pass ran seed %d scale %g",
			o.digests, old.Seed, old.Scale, now.Seed, now.Scale)
	}
	differ := 0
	for _, w := range workloads {
		a, b := old.Workloads[w.Name], now.Workloads[w.Name]
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		for r := 0; r < n; r++ {
			if a[r] != b[r] {
				fmt.Printf("digests: %s round %d differs: %s -> %s\n", w.Name, r, a[r][:12], b[r][:12])
				differ++
			}
		}
		if n == 0 {
			fmt.Printf("digests: %s has no rounds in common with %s\n", w.Name, o.digests)
			differ++
		}
	}
	if differ > 0 {
		return fmt.Errorf("digests: %d round(s) differ from %s: simulated statistics changed", differ, o.digests)
	}
	fmt.Printf("digests: every round matches %s\n", o.digests)
	return nil
}
