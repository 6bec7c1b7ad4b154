package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/core"
	"rpivideo/internal/experiments"
	"rpivideo/internal/obs"
	"rpivideo/internal/obs/analyze"
)

func TestRegistryConsistent(t *testing.T) {
	seen := map[string]bool{}
	list := experiments.Experiments()
	for _, e := range list {
		if e.ID == "" || e.Desc == "" || e.Title == "" {
			t.Errorf("incomplete experiment entry %q", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	const wantExperiments = 24 // 14 figures/tables + 3 ablations + 3 extensions + robustness + repair + bond + fleet
	if len(list) != wantExperiments {
		t.Errorf("the experiment list has %d entries, want %d", len(list), wantExperiments)
	}
}

// TestCampaignLine pins the stdout line the serial and -dist modes print,
// which CI compares between the two.
func TestCampaignLine(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Add("packets_sent", 120)
	reg.Add("packets_delivered", 118)
	reg.Add("frames_played", 30)
	reg.Add("frames_skipped", 2)
	reg.Add("packets_lost", 7) // not on the line
	const want = "scenario urban-gcc: 4 runs, 120 packets sent, 118 delivered, 30 frames played, 2 skipped"
	if got := campaignLine("urban-gcc", 4, reg); got != want {
		t.Errorf("campaignLine = %q, want %q", got, want)
	}
}

// TestReplayOutOfOrderTrace drives -analyze end to end on a trace whose recv
// lines were shuffled by hand: ReadJSONL accepts any line order, and the
// analyzer must neither panic on it nor report different handover epochs
// than for the file as written.
func TestReplayOutOfOrderTrace(t *testing.T) {
	r := core.Run(core.Config{Env: cell.Urban, Air: true, CC: core.CCGCC, Seed: 11, Duration: 30 * time.Second, Trace: true})
	var buf bytes.Buffer
	if err := core.WriteCampaignTrace(&buf, []*core.Result{r}); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	var recv []int
	for i, l := range lines {
		if bytes.Contains(l, []byte(`"kind":"recv"`)) {
			recv = append(recv, i)
		}
	}
	shuffled := append([][]byte(nil), lines...)
	rand.New(rand.NewSource(5)).Shuffle(len(recv), func(i, j int) {
		shuffled[recv[i]], shuffled[recv[j]] = shuffled[recv[j]], shuffled[recv[i]]
	})

	dir := t.TempDir()
	epochs := func(name string, lines [][]byte) []byte {
		tracePath, reportDir := filepath.Join(dir, name+".jsonl"), filepath.Join(dir, name)
		if err := os.WriteFile(tracePath, bytes.Join(lines, nil), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := replayTrace(tracePath, reportDir); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := os.ReadFile(filepath.Join(reportDir, analyze.EpochsCSV))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want, got := epochs("ordered", lines), epochs("shuffled", shuffled)
	if bytes.Count(want, []byte(",handover,")) == 0 {
		t.Fatal("vacuous: no handover epochs in the ordered report")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("epochs.csv differs between the shuffled and the ordered trace:\n%s\nvs\n%s", got, want)
	}
}
