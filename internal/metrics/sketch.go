package metrics

import (
	"math"
	"sort"
)

// The sketch layout is a package-wide constant so every Sketch shares it:
// merges never need a layout negotiation and campaign aggregates are a pure
// function of the sample multiset.
const (
	// SketchAlpha is the relative accuracy of the log-bucketed path: a
	// bucket's representative value is within ±SketchAlpha of every sample
	// the bucket holds.
	SketchAlpha = 0.01
	// sketchExactCap is the exact small-N path: a sketch holding at most
	// this many samples answers queries from the raw samples, so
	// small-campaign results (and the experiment suite's per-run
	// distributions) lose nothing.
	sketchExactCap = 128
)

var (
	// sketchGamma is the log-bucket base: bucket i covers
	// (gamma^(i-1), gamma^i], giving the ±SketchAlpha guarantee.
	sketchGamma   = (1 + SketchAlpha) / (1 - SketchAlpha)
	sketchLnGamma = math.Log(sketchGamma)
	// sketchRepFactor maps a bucket's upper edge gamma^i to its
	// representative value 2·gamma^i/(gamma+1), the point with equal
	// relative error to both edges.
	sketchRepFactor = 2 / (1 + sketchGamma)
)

// sketchIndexLog maps a positive value to its log-bucket index. It is the
// definition of a bucket: the table below is built from it and answers only
// what it would.
func sketchIndexLog(v float64) int32 {
	return int32(math.Ceil(math.Log(v) / sketchLnGamma))
}

// The table-driven index. Every sample a run records — delays in ms, rates,
// frame rates — falls in a window of indices a little wider than the obs
// LogHistogram's [-500, 700] (3.6e-5 … 1.5e6), and there one math.Log per
// sample was 7 % of a flight. sketchEdges[j] is the largest float64 that
// sketchIndexLog maps to index sketchTabMin-1+j or below, found at package
// init by bisecting the floats around gamma^index with sketchIndexLog
// itself (≈ 20 k Log calls, 0.6 ms); a value's index is then the first
// edge it does not exceed. The lookup guesses that edge from the exponent
// and the top sketchMantBits mantissa bits (a guess is off by at most one:
// a mantissa cell is 0.025 buckets wide) and settles it by comparing
// against the edges, so inside the window the table and the Log form agree
// wherever the Log form is monotone, and outside it the Log form answers.
const (
	sketchTabMin   = -512
	sketchTabMax   = 712
	sketchMantBits = 11
)

var (
	sketchEdges [sketchTabMax - sketchTabMin + 2]float64
	// sketchMantLog[m] is log_gamma of the middle of mantissa cell m, in
	// [0, log_gamma 2); sketchLogGamma2 is log_gamma 2.
	sketchMantLog   [1 << sketchMantBits]float64
	sketchLogGamma2 = math.Ln2 / sketchLnGamma
)

func init() {
	for j := range sketchEdges {
		// The edge is within a few hundred ulps of gamma^idx; positive
		// floats order like their bit patterns, so bisect those.
		idx := int32(sketchTabMin - 1 + j)
		v := math.Pow(sketchGamma, float64(idx))
		lo, hi := math.Float64bits(v*(1-1e-12)), math.Float64bits(v*(1+1e-12))
		n := sort.Search(int(hi-lo), func(k int) bool { return sketchIndexLog(math.Float64frombits(lo+uint64(k))) > idx })
		sketchEdges[j] = math.Float64frombits(lo + uint64(n) - 1)
	}
	for m := range sketchMantLog {
		sketchMantLog[m] = math.Log(1+(float64(m)+0.5)/(1<<sketchMantBits)) / sketchLnGamma
	}
}

// sketchIndex maps a positive value to its log-bucket index.
func sketchIndex(v float64) int32 {
	const last = len(sketchEdges) - 1
	if !(v > sketchEdges[0] && v <= sketchEdges[last]) {
		return sketchIndexLog(v) // also NaN
	}
	bits := math.Float64bits(v) // positive and normal: the window says so
	exp := int(bits>>52) - 1023
	mant := bits >> (52 - sketchMantBits) & (1<<sketchMantBits - 1)
	// Position among the edges: log_gamma v - (sketchTabMin-1), positive
	// inside the window, so the conversion truncates downwards.
	j := int(float64(exp)*sketchLogGamma2+sketchMantLog[mant]-(sketchTabMin-1)) + 1
	if j < 1 {
		j = 1
	} else if j > last {
		j = last
	}
	for v > sketchEdges[j] {
		j++
	}
	for v <= sketchEdges[j-1] {
		j--
	}
	return int32(j + sketchTabMin - 1)
}

// BucketIndex exposes the package bucketing scheme: the log-bucket index of
// a positive value, where bucket i covers (gamma^(i-1), gamma^i] with
// gamma = (1+SketchAlpha)/(1-SketchAlpha). Consumers that want to share the
// Sketch layout (the obs LogHistogram) call this instead of re-deriving it.
func BucketIndex(v float64) int32 { return sketchIndex(v) }

// BucketUpper returns bucket idx's upper edge gamma^idx — the inverse of
// BucketIndex up to the bucket's width.
func BucketUpper(idx int32) float64 { return math.Pow(sketchGamma, float64(idx)) }

// sketchRep returns the representative value of a positive bucket.
func sketchRep(idx int32) float64 {
	return math.Pow(sketchGamma, float64(idx)) * sketchRepFactor
}

// Sketch is a mergeable, fixed-layout, log-bucketed distribution summary:
// the campaign-scale replacement for Dist. Adding a sample is O(1), memory
// is O(distinct buckets) — bounded by the value range, not the sample
// count — and quantile/CDF queries come back within SketchAlpha relative
// error. Up to sketchExactCap samples the sketch keeps the raw values and
// answers exactly, so small distributions behave like a Dist.
//
// Merge is deterministic: the merged sketch's query answers are a pure
// function of the combined sample multiset, independent of merge order or
// grouping (the float Sum accumulates in fold order, so Mean may differ in
// the last ulps across orders — bucket counts, N, Min, Max and quantiles
// do not). The zero value is ready to use.
type Sketch struct {
	// exact holds the raw samples while n ≤ sketchExactCap; nil once the
	// sketch has spilled into buckets.
	exact  []float64
	sorted bool
	// pos and neg are the log-bucket counts for positive and negative
	// samples (neg indexed by the bucket of -v); zero counts exact zeros.
	pos, neg map[int32]int64
	zero     int64

	n        int64
	sum      float64
	min, max float64
}

// spilled reports whether the sketch has left the exact path.
func (s *Sketch) spilled() bool { return s.pos != nil }

// spill folds the exact samples into log buckets and drops them.
func (s *Sketch) spill() {
	if s.spilled() {
		return
	}
	s.pos = make(map[int32]int64)
	s.neg = make(map[int32]int64)
	for _, v := range s.exact {
		s.bucketAdd(v, 1)
	}
	s.exact = nil
	s.sorted = false
}

// bucketAdd counts one value (with multiplicity) into the bucket maps.
func (s *Sketch) bucketAdd(v float64, count int64) {
	switch {
	case v > 0:
		s.pos[sketchIndex(v)] += count
	case v < 0:
		s.neg[sketchIndex(-v)] += count
	default:
		s.zero += count
	}
}

// Add records one sample. Non-finite samples are ignored (a NaN cannot be
// ranked, an infinity has no bucket, and one pathological sample must not
// poison a campaign aggregate).
func (s *Sketch) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	if !s.spilled() {
		if s.n <= sketchExactCap {
			s.exact = append(s.exact, v)
			s.sorted = false
			return
		}
		s.spill()
	}
	s.bucketAdd(v, 1)
}

// AddDist folds every sample of a Dist into the sketch.
func (s *Sketch) AddDist(d *Dist) {
	for _, v := range d.flat() {
		s.Add(v)
	}
}

// Merge folds o into s. o is not modified. The result's bucket counts (and
// therefore its quantiles, CDF and fractions) depend only on the combined
// sample multiset, not on the order or grouping of merges.
func (s *Sketch) Merge(o *Sketch) {
	if o.n == 0 {
		return
	}
	if s.n == 0 || o.min < s.min {
		s.min = o.min
	}
	if s.n == 0 || o.max > s.max {
		s.max = o.max
	}
	s.n += o.n
	s.sum += o.sum
	if !s.spilled() && !o.spilled() && s.n <= sketchExactCap {
		s.exact = append(s.exact, o.exact...)
		s.sorted = false
		return
	}
	s.spill()
	if o.spilled() {
		for idx, c := range o.pos {
			s.pos[idx] += c
		}
		for idx, c := range o.neg {
			s.neg[idx] += c
		}
		s.zero += o.zero
		return
	}
	for _, v := range o.exact {
		s.bucketAdd(v, 1)
	}
}

// N returns the number of samples.
func (s *Sketch) N() int { return int(s.n) }

// Sum returns the sum of all samples.
func (s *Sketch) Sum() float64 { return s.sum }

// Mean returns the sample mean, or 0 when empty.
func (s *Sketch) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min returns the smallest sample (exact), or 0 when empty.
func (s *Sketch) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest sample (exact), or 0 when empty.
func (s *Sketch) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// sortExact sorts the exact samples in place for rank queries.
func (s *Sketch) sortExact() {
	if !s.sorted {
		sort.Float64s(s.exact)
		s.sorted = true
	}
}

// atom is one value/count cell of the bucketed distribution, used for rank
// walks in ascending value order.
type atom struct {
	v float64
	c int64
}

// atoms returns the bucket cells in ascending value order.
func (s *Sketch) atoms() []atom {
	out := make([]atom, 0, len(s.neg)+len(s.pos)+1)
	negIdx := make([]int32, 0, len(s.neg))
	for idx := range s.neg {
		negIdx = append(negIdx, idx)
	}
	// Larger |v| first for negatives → ascending value order.
	sort.Slice(negIdx, func(i, j int) bool { return negIdx[i] > negIdx[j] })
	for _, idx := range negIdx {
		out = append(out, atom{v: -sketchRep(idx), c: s.neg[idx]})
	}
	if s.zero > 0 {
		out = append(out, atom{v: 0, c: s.zero})
	}
	posIdx := make([]int32, 0, len(s.pos))
	for idx := range s.pos {
		posIdx = append(posIdx, idx)
	}
	sort.Slice(posIdx, func(i, j int) bool { return posIdx[i] < posIdx[j] })
	for _, idx := range posIdx {
		out = append(out, atom{v: sketchRep(idx), c: s.pos[idx]})
	}
	return out
}

// orderStat returns the k-th smallest sample's representative (0-indexed)
// from the bucketed path.
func orderStat(atoms []atom, k int64) float64 {
	var cum int64
	for _, a := range atoms {
		cum += a.c
		if cum > k {
			return a.v
		}
	}
	if len(atoms) == 0 {
		return 0
	}
	return atoms[len(atoms)-1].v
}

// clamp bounds a representative by the exactly-tracked extremes.
func (s *Sketch) clamp(v float64) float64 {
	if v < s.min {
		return s.min
	}
	if v > s.max {
		return s.max
	}
	return v
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) with linear interpolation
// between closest ranks, mirroring Dist.Quantile. On the exact path the
// answer is exact; on the bucketed path it is within SketchAlpha relative
// error of the Dist answer. Empty sketches return 0.
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	pos := q * float64(s.n-1)
	lo := int64(math.Floor(pos))
	hi := int64(math.Ceil(pos))
	if !s.spilled() {
		s.sortExact()
		if lo == hi {
			return s.exact[lo]
		}
		frac := pos - float64(lo)
		return s.exact[lo]*(1-frac) + s.exact[hi]*frac
	}
	atoms := s.atoms()
	vlo := s.clamp(orderStat(atoms, lo))
	if lo == hi {
		return vlo
	}
	vhi := s.clamp(orderStat(atoms, hi))
	frac := pos - float64(lo)
	return vlo*(1-frac) + vhi*frac
}

// Median returns the 0.5-quantile.
func (s *Sketch) Median() float64 { return s.Quantile(0.5) }

// FracBelow returns the fraction of samples strictly below x. On the
// bucketed path a bucket counts as below x iff its representative is, so
// the boundary error is at most one bucket (±SketchAlpha in value).
func (s *Sketch) FracBelow(x float64) float64 {
	if s.n == 0 {
		return 0
	}
	if !s.spilled() {
		s.sortExact()
		i := sort.SearchFloat64s(s.exact, x)
		return float64(i) / float64(s.n)
	}
	var below int64
	for _, a := range s.atoms() {
		if a.v < x {
			below += a.c
		}
	}
	return float64(below) / float64(s.n)
}

// FracAtOrAbove returns the fraction of samples ≥ x, or 0 when empty (so
// threshold checks cannot pass vacuously on empty results).
func (s *Sketch) FracAtOrAbove(x float64) float64 {
	if s.n == 0 {
		return 0
	}
	return 1 - s.FracBelow(x)
}

// CDF evaluates the empirical CDF at each of xs, returning P(X ≤ x) with
// the same boundary convention as FracBelow.
func (s *Sketch) CDF(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if s.n == 0 {
		return out
	}
	if !s.spilled() {
		s.sortExact()
		for i, x := range xs {
			j := sort.Search(len(s.exact), func(k int) bool { return s.exact[k] > x })
			out[i] = float64(j) / float64(s.n)
		}
		return out
	}
	atoms := s.atoms()
	for i, x := range xs {
		var le int64
		for _, a := range atoms {
			if a.v <= x {
				le += a.c
			}
		}
		out[i] = float64(le) / float64(s.n)
	}
	return out
}

// Box returns the box-plot summary of the sketch.
func (s *Sketch) Box() Box {
	return Box{
		N:      s.N(),
		Min:    s.Quantile(0),
		Q1:     s.Quantile(0.25),
		Median: s.Quantile(0.5),
		Q3:     s.Quantile(0.75),
		Max:    s.Quantile(1),
		Mean:   s.Mean(),
	}
}

// Buckets returns the number of occupied cells: raw samples on the exact
// path, distinct log buckets (plus the zero cell) once spilled. This is
// the sketch's memory footprint driver.
func (s *Sketch) Buckets() int {
	if !s.spilled() {
		return len(s.exact)
	}
	n := len(s.pos) + len(s.neg)
	if s.zero > 0 {
		n++
	}
	return n
}
