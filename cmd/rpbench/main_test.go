package main

import (
	"testing"

	"rpivideo/internal/obs"
)

func TestRegistryConsistent(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range registry {
		if e.id == "" || e.desc == "" || e.run == nil {
			t.Errorf("incomplete registry entry %+v", e.id)
		}
		if seen[e.id] {
			t.Errorf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
	}
	// Every experiment in the package's All() set must be reachable from
	// the CLI: the counts must agree.
	const wantExperiments = 24 // 14 figures/tables + 3 ablations + 3 extensions + robustness + repair + bond + fleet
	if len(registry) != wantExperiments {
		t.Errorf("registry has %d experiments, want %d", len(registry), wantExperiments)
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
