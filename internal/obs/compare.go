package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"

	"rpivideo/internal/ordered"
)

// ReadRegistryJSON parses a registry previously exported by WriteJSON. It
// is the read side of the regression gate (a checked-in baseline export is
// read back and compared against a freshly computed registry) and of the
// dist fold (each shard carries its run's registry). A histogram whose
// counts cannot be a sketch's is an error (see metrics.Sketch.UnmarshalJSON).
func ReadRegistryJSON(r io.Reader) (*Registry, error) {
	var in registryJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("obs: parsing registry JSON: %w", err)
	}
	reg := NewRegistry()
	for name, v := range in.Counters {
		reg.counters[name] = v
	}
	for name, v := range in.Gauges {
		reg.gauges[name] = v
	}
	for name, h := range in.Histograms {
		if h != nil {
			reg.hists[name] = h
		}
	}
	return reg, nil
}

// MergeRegistriesJSON merges the registries that sections hold — each a
// ReadRegistryJSON input; nil ones are skipped — into dst in index order,
// so dst ends as merging them one after another leaves it: a histogram's
// float Sum depends on the order. The sections are decoded on the
// available cores and merged from the caller's goroutine. On a section that
// does not parse it stops and returns that section's index with
// ReadRegistryJSON's error, the sections before it merged.
func MergeRegistriesJSON(dst *Registry, sections [][]byte) (int, error) {
	type piece struct {
		i   int
		reg *Registry
		err error
	}
	next := 0
	produce := func(p *piece) bool {
		for next < len(sections) && sections[next] == nil {
			next++
		}
		if next == len(sections) {
			return false
		}
		p.i = next
		next++
		return true
	}
	decode := func(p *piece) { p.reg, p.err = ReadRegistryJSON(bytes.NewReader(sections[p.i])) }
	bad := -1
	merge := func(p *piece) error {
		if p.err != nil {
			bad = p.i
			return p.err
		}
		dst.Merge(p.reg)
		return nil
	}
	return bad, ordered.Run(runtime.GOMAXPROCS(0), produce, decode, merge)
}

// Tolerance configures the regression gate's drift allowance. Relative
// drift is |cur-base| / max(|base|, 1) — the max(…, 1) floor keeps
// near-zero baselines from turning one stray packet into infinite drift.
type Tolerance struct {
	// Default applies to every metric. Zero means exact equality.
	Default float64
}

// Drift is one metric that moved beyond its tolerance, or appeared or
// disappeared between baseline and current.
type Drift struct {
	Metric  string  `json:"metric"`
	Base    float64 `json:"base"`
	Cur     float64 `json:"cur"`
	Rel     float64 `json:"rel"`
	Allowed float64 `json:"allowed"`
	// Missing marks a metric present on exactly one side; Base/Cur carry
	// the side that has it.
	Missing string `json:"missing,omitempty"`
}

func (d Drift) String() string {
	if d.Missing != "" {
		return fmt.Sprintf("%s: missing in %s", d.Metric, d.Missing)
	}
	return fmt.Sprintf("%s: base %g, cur %g (drift %.4f > allowed %.4f)", d.Metric, d.Base, d.Cur, d.Rel, d.Allowed)
}

// relDrift computes |cur-base| / max(|base|, 1).
func relDrift(base, cur float64) float64 {
	den := math.Abs(base)
	if den < 1 {
		den = 1
	}
	return math.Abs(cur-base) / den
}

// CompareRegistries diffs cur against base under the tolerance and returns
// every drifted metric, sorted by name. Counters and gauges compare by
// value; histograms compare their count and sum facets. An empty result
// means the gate passes.
func CompareRegistries(base, cur *Registry, tol Tolerance) []Drift {
	var out []Drift
	num := func(name string, b, c float64, bOK, cOK bool) {
		switch {
		case bOK && !cOK:
			out = append(out, Drift{Metric: name, Base: b, Missing: "cur"})
		case !bOK && cOK:
			out = append(out, Drift{Metric: name, Cur: c, Missing: "base"})
		case bOK && cOK:
			// Written so that a NaN drift or tolerance fails the gate:
			// rel > NaN would pass everything.
			if rel := relDrift(b, c); !(rel <= tol.Default) {
				out = append(out, Drift{Metric: name, Base: b, Cur: c, Rel: rel, Allowed: tol.Default})
			}
		}
	}

	for _, name := range unionKeys(keysOf(base.counters), keysOf(cur.counters)) {
		b, bOK := base.counters[name]
		c, cOK := cur.counters[name]
		num("counter/"+name, float64(b), float64(c), bOK, cOK)
	}
	for _, name := range unionKeys(keysOf(base.gauges), keysOf(cur.gauges)) {
		b, bOK := base.gauges[name]
		c, cOK := cur.gauges[name]
		num("gauge/"+name, b, c, bOK, cOK)
	}
	for _, name := range unionKeys(keysOf(base.hists), keysOf(cur.hists)) {
		bh, bOK := base.hists[name]
		ch, cOK := cur.hists[name]
		if !bOK || !cOK {
			side := "cur"
			if !bOK {
				side = "base"
			}
			out = append(out, Drift{Metric: "histogram/" + name, Missing: side})
			continue
		}
		num("histogram/"+name+"/count", float64(bh.N()), float64(ch.N()), true, true)
		num("histogram/"+name+"/sum", bh.Sum(), ch.Sum(), true, true)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Metric < out[j].Metric })
	return out
}

func keysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func unionKeys(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, k := range append(a, b...) {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
