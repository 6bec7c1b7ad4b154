package experiments

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestAllExperimentsSatisfyShapeChecks runs every figure/table experiment at
// a reduced repetition count and asserts every shape check against the
// paper holds. This is the repository's main end-to-end regression.
func TestAllExperimentsSatisfyShapeChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	o := Options{Runs: 2, Seed: 1}
	type exp struct {
		name string
		run  func(Options) *Report
	}
	exps := []exp{
		{"fig4a", Fig4aHandoverFrequency},
		{"fig4b", Fig4bHandoverExecutionTime},
		{"fig5", Fig5OneWayLatency},
		{"fig6", Fig6Goodput},
		{"fig7a", Fig7aFPS},
		{"fig7b", Fig7bSSIM},
		{"fig7c", Fig7cPlaybackLatency},
		{"fig8", Fig8HandoverTimeline},
		{"fig9", Fig9LatencyRatio},
		{"fig10", Fig10OperatorCapacity},
		{"tbl-stall", TableStallRates},
		{"tbl-rampup", TableRampUp},
		{"fig12", Fig12OperatorVideo},
		{"fig13", Fig13RTTByAltitude},
		{"abl-ack", AblationScreamAckWindow},
		{"abl-jb", AblationJitterBuffer},
		{"abl-est", AblationEstimator},
		{"ext-daps", ExtDAPS},
		{"ext-aqm", ExtAQM},
		{"ext-mpath", ExtMultipath},
		{"robust", Robustness},
		{"repair", Repair},
		{"bond", Bond},
		{"fleet", Fleet},
	}
	for _, e := range exps {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			rep := e.run(o)
			var sb strings.Builder
			if _, err := rep.WriteTo(&sb); err != nil {
				t.Fatal(err)
			}
			t.Log("\n" + sb.String())
			if !rep.OK() {
				t.Errorf("shape checks failed: %v", rep.FailedChecks())
			}
		})
	}
}

// TestFig8Fig9MatchRecord byte-compares the two handover figures' rendered
// reports, at the EXPERIMENTS.md record's setting, against
// testdata/paper/fig{8,9}.txt. The files were written from the per-packet
// series path before it was deleted, so they pin that the trace-analyzer path
// reproduces it exactly; -update regenerates them.
func TestFig8Fig9MatchRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	o := Options{Runs: 2, Seed: 1}
	for _, e := range []struct {
		name string
		run  func(Options) *Report
	}{{"fig8", Fig8HandoverTimeline}, {"fig9", Fig9LatencyRatio}} {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if _, err := e.run(o).WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, filepath.Join("testdata", "paper", e.name+".txt"), buf.Bytes())
		})
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "test"}
	r.row("value %d", 42)
	r.check("passes", true, "fine")
	r.check("fails", false, "nope")
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== x — test ==", "value 42", "[ok  ]", "[FAIL]"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
	if r.OK() {
		t.Error("OK() with a failed check")
	}
	if got := r.FailedChecks(); len(got) != 1 || !strings.Contains(got[0], "fails") {
		t.Errorf("FailedChecks = %v", got)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}
	o.defaults()
	if o.Runs != 3 || o.Seed != 1 {
		t.Errorf("defaults = %+v", o)
	}
}
