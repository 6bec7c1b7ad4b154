package experiments

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// TestAllExperimentsSatisfyShapeChecks runs every experiment of the list at
// the EXPERIMENTS.md record's setting, byte-compares each rendered report
// against testdata/paper/<id>.txt and asserts every targets row against the
// paper holds. This is the repository's main end-to-end regression: the
// pinned reports are the measured record, so any drift in a figure shows up
// as a diff; -update regenerates them.
func TestAllExperimentsSatisfyShapeChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	o := Options{Runs: 2, Seed: 1}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			rep := e.Run(o)
			var buf bytes.Buffer
			if _, err := rep.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, filepath.Join("testdata", "paper", e.ID+".txt"), buf.Bytes())
			if !rep.OK() {
				t.Errorf("shape checks failed: %v", failedChecks(rep))
			}
		})
	}
}

// TestFig8Fig9MatchRecord byte-compares the two handover figures' rendered
// reports, at the EXPERIMENTS.md record's setting, against
// testdata/paper/fig{8,9}.txt. The rows were written from the per-packet
// series path before it was deleted, so they pin that the trace-analyzer path
// reproduces it exactly; -update regenerates them.
func TestFig8Fig9MatchRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	o := Options{Runs: 2, Seed: 1}
	for _, e := range Experiments() {
		if e.ID != "fig8" && e.ID != "fig9" {
			continue
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if _, err := e.Run(o).WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, filepath.Join("testdata", "paper", e.ID+".txt"), buf.Bytes())
		})
	}
}

// TestTargetsTable holds the targets table to its rules — every row names a
// listed experiment, row names are unique within an experiment, every
// experiment has a row — and the evaluator to its semantics on each op, k
// and c, with NaN, ±Inf and a missing quantity failing.
func TestTargetsTable(t *testing.T) {
	listed := map[string]bool{}
	for _, e := range Experiments() {
		listed[e.ID] = true
	}
	ops := map[string]bool{"<": true, "≤": true, ">": true, "≥": true, "==": true}
	rows := map[string]int{}
	names := map[[2]string]bool{}
	for _, tg := range targets {
		switch {
		case !listed[tg.exp]:
			t.Errorf("row %q names unlisted experiment %q", tg.name, tg.exp)
		case names[[2]string{tg.exp, tg.name}]:
			t.Errorf("%s: duplicate row name %q", tg.exp, tg.name)
		case !ops[tg.op]:
			t.Errorf("%s %q: unknown op %q", tg.exp, tg.name, tg.op)
		case tg.l == "" || tg.section == "":
			t.Errorf("%s %q: no quantity or no paper section", tg.exp, tg.name)
		case tg.r == "" && tg.k != 0:
			t.Errorf("%s %q: k = %g without a right-hand quantity", tg.exp, tg.name, tg.k)
		}
		names[[2]string{tg.exp, tg.name}] = true
		rows[tg.exp]++
	}
	for id := range listed {
		if rows[id] == 0 {
			t.Errorf("experiment %s has no targets row", id)
		}
	}

	q := map[string]float64{"a": 2, "b": 1, "nan": math.NaN(), "inf": math.Inf(1), "-inf": math.Inf(-1)}
	for _, tc := range []struct {
		row  target
		want bool
	}{
		{target{l: "a", op: "<", c: 3}, true},
		{target{l: "a", op: "<", c: 2}, false},
		{target{l: "a", op: "≤", c: 2}, true},
		{target{l: "a", op: "≤", c: 1.5}, false},
		{target{l: "a", op: ">", k: 1, r: "b"}, true},
		{target{l: "a", op: ">", k: 2, r: "b"}, false},
		{target{l: "a", op: "≥", k: 2, r: "b"}, true},
		{target{l: "a", op: "≥", k: 2, r: "b", c: 0.5}, false},
		{target{l: "a", op: "≥", k: 2, r: "b", c: -0.5}, true},
		{target{l: "a", op: "==", k: 1, r: "b", c: 1}, true},
		{target{l: "a", op: "==", c: 2.5}, false},
		{target{l: "a", op: "!=", c: 0}, false},
		{target{l: "nan", op: "<", c: 1}, false},
		{target{l: "nan", op: ">", c: 1}, false},
		{target{l: "a", op: "<", k: 1, r: "nan"}, false},
		{target{l: "inf", op: ">", c: 0}, false},
		{target{l: "-inf", op: "<", c: 0}, false},
		{target{l: "a", op: "<", k: 1, r: "inf"}, false},
		{target{l: "a", op: ">", k: 1, r: "-inf"}, false},
		{target{l: "missing", op: "<", c: 1}, false},
		{target{l: "a", op: ">", k: 1, r: "missing"}, false},
	} {
		if got := tc.row.eval(q); got.OK != tc.want {
			t.Errorf("%s %s %g×%s %+g: OK = %v, want %v (%s)", tc.row.l, tc.row.op, tc.row.k, tc.row.r, tc.row.c, got.OK, tc.want, got.Detail)
		}
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "test", Quantities: map[string]float64{}}
	r.row("value %d", 42)
	r.set("q", 1)
	for _, tg := range []target{
		{name: "passes", l: "q", op: "<", c: 2, section: "§0"},
		{name: "fails", l: "q", op: ">", c: 2, section: "§0"},
	} {
		r.Checks = append(r.Checks, tg.eval(r.Quantities))
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== x — test ==", "value 42", "[ok  ] passes", "[FAIL] fails", "q 1 > 2 (§0)"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
	if r.OK() {
		t.Error("OK() with a failed check")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}
	o.defaults()
	if o.Runs != 3 || o.Seed != 1 {
		t.Errorf("defaults = %+v", o)
	}
}

// failedChecks lists r's failed checks, each with its detail.
func failedChecks(r *Report) []string {
	var out []string
	for _, c := range r.Checks {
		if !c.OK {
			out = append(out, c.Name+": "+c.Detail)
		}
	}
	return out
}
