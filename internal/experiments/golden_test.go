package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"rpivideo/internal/core"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./internal/experiments -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden trace/metrics files")

// TestGoldenTraces byte-compares each scenario's pinned-seed trace and
// campaign-metrics exports against testdata/golden/. Any change to the
// simulation's event order, the trace schema, the seed derivation or the
// metrics layouts shows up here as a diff; intentional changes regenerate
// with -update.
func TestGoldenTraces(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			var trace, metrics bytes.Buffer
			if sc.Fleet > 0 {
				// Fleet scenarios pin the cell event timeline (the fleet
				// counterpart of the per-run trace) and the merged registry.
				fr, err := RunFleetScenarioWithOptions(sc, ScenarioOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := fr.WriteCellEvents(&trace); err != nil {
					t.Fatal(err)
				}
				if err := fr.WriteMetrics(&metrics); err != nil {
					t.Fatal(err)
				}
			} else {
				results, err := RunScenarioWithOptions(sc, ScenarioOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := core.WriteCampaignTrace(&trace, results); err != nil {
					t.Fatal(err)
				}
				if err := core.WriteCampaignMetrics(&metrics, results); err != nil {
					t.Fatal(err)
				}
			}
			compareGolden(t, filepath.Join("testdata", "golden", sc.Name+".jsonl"), trace.Bytes())
			compareGolden(t, filepath.Join("testdata", "golden", sc.Name+".metrics.json"), metrics.Bytes())
		})
	}
}

func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with -update): %v", path, err)
	}
	if bytes.Equal(want, got) {
		return
	}
	// Find the first differing line for a readable failure.
	wantLines := bytes.Split(want, []byte("\n"))
	gotLines := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g []byte
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if !bytes.Equal(w, g) {
			t.Fatalf("%s: first difference at line %d:\n  want: %s\n  got:  %s\n(%d vs %d bytes total; regenerate with -update if intentional)",
				path, i+1, w, g, len(want), len(got))
		}
	}
	t.Fatalf("%s: exports differ (%d vs %d bytes)", path, len(want), len(got))
}
