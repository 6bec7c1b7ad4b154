package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"rpivideo/internal/core"
	"rpivideo/internal/obs"
)

// baselineDir holds the checked-in regression baselines the CI gates
// compare against (regenerate one with
// `rpbench -scenario <name> -metrics <path>` after an intentional
// behavior change).
const baselineDir = "testdata/baseline/"

// fleetBaselinePath is the fleet counterpart (regenerate with
// `rpbench -scenario fleet-contention -metrics <path>`).
const fleetBaselinePath = baselineDir + "fleet-contention.metrics.json"

func readBaselineAt(t *testing.T, path string) *obs.Registry {
	t.Helper()
	f, err := os.Open(filepath.FromSlash(path))
	if err != nil {
		t.Fatalf("baseline missing (regenerate with rpbench -scenario <name> -metrics): %v", err)
	}
	defer f.Close()
	base, err := obs.ReadRegistryJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// TestBaselineGate is the regression gate end-to-end: each gated campaign
// scenario's metrics must match its checked-in baseline exactly (runs are
// deterministic, so the tolerance is zero), and a perturbed baseline must
// trip the gate — proving the comparison actually bites.
func TestBaselineGate(t *testing.T) {
	for _, name := range []string{"urban-gcc", "urban-scream"} {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := ScenarioByName(name)
			if err != nil {
				t.Fatal(err)
			}
			results, err := RunScenarioWithOptions(sc, ScenarioOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cur := core.CampaignMetrics(results)
			path := baselineDir + name + ".metrics.json"

			if drifts := obs.CompareRegistries(readBaselineAt(t, path), cur, obs.Tolerance{}); len(drifts) != 0 {
				for _, d := range drifts {
					t.Errorf("drift vs baseline: %s", d)
				}
				t.Fatalf("%s campaign metrics drifted from testdata/baseline (regenerate the baseline if the change is intentional)", name)
			}

			// Perturb the baseline: the gate must catch it and name the metric.
			perturbed := readBaselineAt(t, path)
			perturbed.Add("packets_sent", 100)
			drifts := obs.CompareRegistries(perturbed, cur, obs.Tolerance{})
			found := false
			for _, d := range drifts {
				if d.Metric == "counter/packets_sent" {
					found = true
				}
			}
			if !found {
				t.Fatalf("perturbed baseline not caught: %v", drifts)
			}
		})
	}
}

// TestFleetBaselineGate mirrors TestBaselineGate for the fleet-contention
// scenario: the merged fleet registry (per-UAV metrics plus the fleet_*
// contention keys) must match the checked-in baseline exactly, and a
// perturbed baseline must trip the gate.
func TestFleetBaselineGate(t *testing.T) {
	sc, err := ScenarioByName("fleet-contention")
	if err != nil {
		t.Fatal(err)
	}
	fr, err := RunFleetScenarioWithOptions(sc, ScenarioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cur := fr.MetricsRegistry()

	if drifts := obs.CompareRegistries(readBaselineAt(t, fleetBaselinePath), cur, obs.Tolerance{}); len(drifts) != 0 {
		for _, d := range drifts {
			t.Errorf("drift vs baseline: %s", d)
		}
		t.Fatal("fleet-contention metrics drifted from testdata/baseline (regenerate the baseline if the change is intentional)")
	}

	perturbed := readBaselineAt(t, fleetBaselinePath)
	perturbed.Add("fleet_overload_epochs", 1)
	drifts := obs.CompareRegistries(perturbed, cur, obs.Tolerance{})
	found := false
	for _, d := range drifts {
		if d.Metric == "counter/fleet_overload_epochs" {
			found = true
		}
	}
	if !found {
		t.Fatalf("perturbed baseline not caught: %v", drifts)
	}
}
