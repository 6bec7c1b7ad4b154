package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Span is one in-memory benchmark span: a timed interval of one layer's
// replay (or of a whole round), linked to the span that caused it.
type Span struct {
	ID       int    `json:"id"`
	Layer    string `json:"layer"`
	Op       string `json:"op"`
	Workload string `json:"workload"`
	Round    int    `json:"round"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // span ID, -1 for a root
}

// Recorder keeps spans in memory; they are written out once, at exit.
type Recorder struct {
	workload string
	round    int
	t0       time.Time
	spans    []Span
}

func newRecorder(workload string, round int) *Recorder {
	return &Recorder{workload: workload, round: round, t0: time.Now()}
}

// Start opens a span and returns its ID.
func (r *Recorder) Start(layer, op string, parent int) int {
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Layer: layer, Op: op, Workload: r.workload, Round: r.round,
		Parent: parent, StartNs: int64(time.Since(r.t0))})
	return id
}

// End closes a span.
func (r *Recorder) End(id int) { r.spans[id].EndNs = int64(time.Since(r.t0)) }

// Spans returns the recorded spans.
func (r *Recorder) Spans() []Span { return r.spans }

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its direct children cover
// (overlapping children are counted once).
func selfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		var covered int64
		edge := s.StartNs
		for _, k := range kids {
			from, to := k.StartNs, k.EndNs
			if from < edge {
				from = edge
			}
			if to > s.EndNs {
				to = s.EndNs
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		out[s.ID] = s.EndNs - s.StartNs - covered
	}
	return out
}

// busySeconds sums the durations of a layer's leaf spans (those with the
// given op) — the time the replay spent inside that layer's public API.
func busySeconds(spans []Span, layer, op string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Layer == layer && s.Op == op {
			ns += s.EndNs - s.StartNs
		}
	}
	return float64(ns) / 1e9
}

// writeSpans renders spans as JSON lines.
func writeSpans(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
