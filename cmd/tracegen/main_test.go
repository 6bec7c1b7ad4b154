package main

import (
	"bytes"
	"strings"
	"testing"

	"rpivideo/internal/obs"
)

// TestEmittedTraceRoundTrips: what tracegen writes is the one trace schema —
// obs.ReadJSONL parses it back as a single run whose meta line counts exactly
// the event lines that follow.
func TestEmittedTraceRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("full 360 s run")
	}
	var out, errOut bytes.Buffer
	// The cheapest full run: rural ground, static rate (≈ 0.6 M events).
	if code := run([]string{"-env", "rural", "-cc", "static", "-ground", "-seed", "2"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := bytes.Count(out.Bytes(), []byte("\n"))
	runs, err := obs.ReadJSONL(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("%d runs in the trace, want 1", len(runs))
	}
	meta := runs[0].Meta
	if meta.Label != "rural-P1-grd-static" || meta.Seed != 2 || meta.Dropped != 0 {
		t.Errorf("meta = %+v", meta)
	}
	if n := int64(len(runs[0].Events)); n == 0 || meta.Events != n || int64(lines) != n+1 {
		t.Errorf("meta.events %d, parsed events %d, lines %d: want events == parsed == lines-1", meta.Events, n, lines)
	}
}

// TestRetiredAndBadFlags: the CSV and summary of a flight are rpbench
// -analyze's report bundle now, so the two old flags are usage errors; bad
// enum values fail before any simulation.
func TestRetiredAndBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-csv"}, 2, "flag provided but not defined: -csv"},
		{[]string{"-summary"}, 2, "flag provided but not defined: -summary"},
		{[]string{"-env", "mars"}, 1, `unknown environment "mars"`},
		{[]string{"-op", "P3"}, 1, `unknown operator "P3"`},
		{[]string{"-cc", "bbr"}, 1, "bbr"},
	} {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != tc.code {
			t.Errorf("%v: exit %d, want %d", tc.args, code, tc.code)
		}
		if !strings.Contains(errOut.String(), tc.want) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, errOut.String(), tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote %d bytes to stdout", tc.args, out.Len())
		}
	}
}
