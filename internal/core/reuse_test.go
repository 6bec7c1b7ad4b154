package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/core"
	"rpivideo/internal/experiments"
)

// TestRunIndependentOfPredecessor: a run on recycled buffers is the run an
// empty set makes. Every golden scenario's configuration, traced and
// untraced, runs on a private empty set (RunFresh) and then, on one worker,
// right after each of five predecessors that leave the buffers in different
// states — grown by a SCReAM flight, by the bonded, repaired, faulted 75 s
// flight, by a fleet UAV under a capacity share, by a wire-mode run, or
// abandoned by a run that panicked mid-flight. Its simulator cost, metrics
// registry, telemetry registry and trace must be byte-identical to the
// fresh run's, and the predecessor's Result must read the same after its
// successor ran as before: no Result may point into storage the next run
// reuses.
func TestRunIndependentOfPredecessor(t *testing.T) {
	scream := core.Config{Env: cell.Urban, Op: cell.P1, Air: true, CC: core.CCSCReAM, Seed: 3, Duration: 10 * time.Second, Trace: true}
	resilient := core.Resilient75s()
	resilient.Seed, resilient.Trace = 7, true
	fleetUAV := core.Config{Env: cell.Urban, Op: cell.P1, Air: true, CC: core.CCStatic, Seed: 5, Duration: 10 * time.Second, Trace: true,
		Cells: cell.Deployment(cell.Urban, cell.P1, rand.New(rand.NewSource(1))), OffsetX: 300, OffsetY: -200,
		CapacityShare: func(now time.Duration) float64 { return 0.2 + 0.6*float64(now%(2*time.Second))/float64(2*time.Second) }}
	wire := core.Config{Env: cell.Urban, Op: cell.P1, Air: true, CC: core.CCGCC, Seed: 9, Duration: 8 * time.Second, Trace: true}
	panicked := core.Config{Env: cell.Urban, Op: cell.P1, Air: true, CC: core.CCGCC, Seed: 11, Duration: 20 * time.Second, Trace: true,
		CapacityShare: func(now time.Duration) float64 {
			if now > 6*time.Second {
				panic("mid-flight")
			}
			return 1
		}}
	preds := []struct {
		name string
		job  core.WorkerJob
	}{
		{"urban-scream", core.WorkerJob{Config: scream}},
		{"resilient-75s", core.WorkerJob{Config: resilient}},
		{"fleet-uav", core.WorkerJob{Config: fleetUAV}},
		{"wire", core.WorkerJob{Config: wire, Wire: true}},
		{"panicked", core.WorkerJob{Config: panicked}},
	}
	for _, sc := range experiments.Scenarios() {
		for _, trace := range []bool{false, true} {
			cfg := sc.Config
			cfg.Trace = trace
			want := exportRun(t, core.RunFresh(core.WorkerJob{Config: cfg}))
			for _, p := range preds {
				var pred *core.Result
				var before, got string
				errs := core.RunOnOneWorker([]core.WorkerJob{p.job, {Config: cfg}}, func(i int, r *core.Result) {
					switch {
					case i == 0 && r != nil:
						pred, before = r, exportRun(t, r)
					case i == 1:
						got = exportRun(t, r)
					}
				})
				name := sc.Name + " trace=" + map[bool]string{false: "off", true: "on"}[trace] + " after " + p.name
				if (errs[0] != nil) != (p.name == "panicked") || errs[1] != nil {
					t.Fatalf("%s: errors %v", name, errs)
				}
				if got != want {
					t.Errorf("%s: the run differs from a fresh one (%s)", name, firstDiff(want, got))
				}
				if pred != nil {
					if after := exportRun(t, pred); after != before {
						t.Errorf("%s: the predecessor's Result changed while its successor ran (%s)", name, firstDiff(before, after))
					}
				}
			}
		}
	}
}

// exportRun renders what a Result says: its simulator cost, its stalls,
// handovers and bonded paths, its metrics registry, its telemetry registry
// and its trace.
func exportRun(t *testing.T, r *core.Result) string {
	t.Helper()
	if r == nil {
		t.Fatal("no result")
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "events %d, timers %d\nstalls %v\nhandovers %v\npaths %+v\n", r.SimEvents, r.SimTimerPeak, r.Stalls, r.Handovers, r.BondPaths)
	if err := core.WriteCampaignMetrics(&b, []*core.Result{r}); err != nil {
		t.Fatal(err)
	}
	if err := r.Telemetry.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if err := core.WriteCampaignTrace(&b, []*core.Result{r}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// firstDiff names the first line where two exports differ.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return "line " + w[i] + " became " + g[i]
		}
	}
	return "lengths differ"
}
