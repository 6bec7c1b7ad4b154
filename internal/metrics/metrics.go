// Package metrics provides the statistical aggregates used throughout the
// reproduction: the mergeable log-bucketed Sketch every run and campaign
// records its distributions in (the paper's box plots and CDF figures), and
// the exact Dist for small collections a figure assembles itself.
// Time-windowed queries over a run (the pre/post-handover latency-ratio
// analysis of Fig. 9) live in internal/obs/analyze, over the run's trace.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Dist keeps every sample of a distribution and answers exactly. It is for
// the figures' own small collections (per-run rates, per-handover ratios,
// per-UAV goodputs); what a run records goes into a Sketch. The zero value
// is ready to use.
type Dist struct {
	samples []float64
	sorted  bool
	sum     float64
}

// Add appends one sample.
func (d *Dist) Add(v float64) {
	d.samples = append(d.samples, v)
	d.sorted = false
	d.sum += v
}

// N returns the number of samples.
func (d *Dist) N() int { return len(d.samples) }

// Samples returns a copy of the raw samples in insertion order (sorted
// ascending if a quantile query has run). The copy is the caller's: later
// quantile queries — which sort the internal slice in place — cannot
// reorder it, and mutating it cannot corrupt the distribution.
func (d *Dist) Samples() []float64 {
	return append([]float64(nil), d.samples...)
}

// Mean returns the sample mean, or 0 for an empty distribution.
func (d *Dist) Mean() float64 {
	if d.N() == 0 {
		return 0
	}
	return d.sum / float64(d.N())
}

// sort returns all samples in ascending order.
func (d *Dist) sort() []float64 {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
	return d.samples
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using linear interpolation
// between closest ranks. It returns 0 for an empty distribution.
func (d *Dist) Quantile(q float64) float64 {
	if d.N() == 0 {
		return 0
	}
	s := d.sort()
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Max returns the largest sample, or 0 when empty.
func (d *Dist) Max() float64 { return d.Quantile(1) }

// Median returns the 0.5-quantile.
func (d *Dist) Median() float64 { return d.Quantile(0.5) }

// FracBelow returns the fraction of samples strictly below x.
func (d *Dist) FracBelow(x float64) float64 {
	if d.N() == 0 {
		return 0
	}
	s := d.sort()
	return float64(sort.SearchFloat64s(s, x)) / float64(len(s))
}

// FracAtOrAbove returns the fraction of samples ≥ x, or 0 for an empty
// distribution (so threshold checks cannot pass vacuously on empty results).
func (d *Dist) FracAtOrAbove(x float64) float64 {
	if d.N() == 0 {
		return 0
	}
	return 1 - d.FracBelow(x)
}

// CDF evaluates the empirical CDF at each of xs, returning P(X ≤ x).
func (d *Dist) CDF(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if d.N() == 0 {
		return out
	}
	s := d.sort()
	for i, x := range xs {
		// Upper bound: first index with sample > x.
		j := sort.Search(len(s), func(k int) bool { return s[k] > x })
		out[i] = float64(j) / float64(len(s))
	}
	return out
}

// Box summarizes a distribution the way the paper's box plots do.
type Box struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
}

// Box returns the box-plot summary of the distribution.
func (d *Dist) Box() Box {
	return Box{
		N:      d.N(),
		Min:    d.Quantile(0),
		Q1:     d.Quantile(0.25),
		Median: d.Quantile(0.5),
		Q3:     d.Quantile(0.75),
		Max:    d.Quantile(1),
		Mean:   d.Mean(),
	}
}

// String renders the box summary on one line.
func (b Box) String() string {
	return fmt.Sprintf("n=%d min=%.3g q1=%.3g med=%.3g q3=%.3g max=%.3g mean=%.3g",
		b.N, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean)
}
