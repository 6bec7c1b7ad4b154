package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSelfTimeIsParentMinusChildren(t *testing.T) {
	spans := []Span{
		{ID: 0, Layer: "core", Op: "round", StartNs: 0, EndNs: 1000, Parent: -1},
		{ID: 1, Layer: "link", Op: "packet", StartNs: 100, EndNs: 400, Parent: 0},
		{ID: 2, Layer: "link", Op: "packet/s", StartNs: 100, EndNs: 200, Parent: 1},
		{ID: 3, Layer: "link", Op: "packet/s", StartNs: 250, EndNs: 400, Parent: 1},
		// Overlapping siblings are counted once; a child running past its
		// parent is clipped to it.
		{ID: 4, Layer: "gcc", Op: "feedback", StartNs: 300, EndNs: 600, Parent: 0},
		{ID: 5, Layer: "obs", Op: "emit", StartNs: 900, EndNs: 1200, Parent: 0},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		0: 1000 - (300 + 200 + 100), // [100,400) ∪ [300,600) ∪ [900,1000)
		1: 300 - (100 + 150),
		2: 100,
		3: 150,
		4: 300,
		5: 300,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d ns, want %d", id, self[id], w)
		}
	}
	if got := busySeconds(spans, "link", "packet/s"); got != 250e-9 {
		t.Errorf("busySeconds = %v, want 250 ns", got)
	}
}

func TestSpansJSONLCarriesTheContractFields(t *testing.T) {
	rec := newRecorder("flight-gcc", 3)
	root := rec.Start("core", "traced-round", -1)
	kid := rec.Start("sim", "run/s", root)
	rec.End(kid)
	rec.End(root)
	var buf bytes.Buffer
	if err := writeSpans(&buf, rec.Spans()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &got); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"layer", "op", "workload", "round", "start_ns", "end_ns", "parent"} {
		if _, ok := got[key]; !ok {
			t.Errorf("span line lacks %q: %s", key, lines[1])
		}
	}
	if got["parent"] != float64(root) || got["workload"] != "flight-gcc" || got["round"] != float64(3) {
		t.Errorf("span line = %s", lines[1])
	}
	if got["end_ns"].(float64) < got["start_ns"].(float64) {
		t.Errorf("span ends before it starts: %s", lines[1])
	}
}
