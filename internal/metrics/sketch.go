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
// frame rates — falls in the index window [-512, 712] (3.6e-5 … 1.5e6), and
// there one math.Log per sample was 7 % of a flight. sketchEdges[j] is the
// largest float64 that sketchIndexLog maps to index sketchTabMin-1+j or
// below, found at package init by bisecting the floats around gamma^index
// with sketchIndexLog itself (≈ 20 k Log calls, 0.6 ms); a value's index is
// then the first edge it does not exceed. The lookup guesses that edge from
// the exponent and the top sketchMantBits mantissa bits (a guess is off by
// at most one: a mantissa cell is 0.025 buckets wide) and settles it by
// comparing against the edges, so inside the window the table and the Log
// form agree wherever the Log form is monotone, and outside it the Log form
// answers.
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

// sketchIndex maps a positive value to its log-bucket index, where bucket i
// covers (gamma^(i-1), gamma^i] with gamma = (1+SketchAlpha)/(1-SketchAlpha).
// It is the layout of every Sketch and of the registry's histogram wire
// format.
func sketchIndex(v float64) int32 {
	if !inTable(v) {
		return sketchIndexLog(v) // also NaN
	}
	return int32(sketchEdge(v) + sketchTabMin - 1)
}

// inTable reports whether v lies inside the table's window.
func inTable(v float64) bool {
	return v > sketchEdges[0] && v <= sketchEdges[len(sketchEdges)-1]
}

// sketchEdge returns the j with sketchEdges[j-1] < v ≤ sketchEdges[j] for a
// v inside the table's window: the bucket of index sketchTabMin-1+j.
func sketchEdge(v float64) int {
	const last = len(sketchEdges) - 1
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
	return j
}

// BucketUpper returns bucket idx's upper edge gamma^idx — the inverse of
// sketchIndex up to the bucket's width.
func BucketUpper(idx int32) float64 { return math.Pow(sketchGamma, float64(idx)) }

// sketchRep returns the representative value of a positive bucket.
func sketchRep(idx int32) float64 {
	return math.Pow(sketchGamma, float64(idx)) * sketchRepFactor
}

// The bucket indices a finite non-zero magnitude can have: a wire sketch
// naming any other index is not one this package wrote.
var (
	sketchMinIndex = sketchIndexLog(math.SmallestNonzeroFloat64)
	sketchMaxIndex = sketchIndexLog(math.MaxFloat64)
)

// Sketch is the one recorded distribution: every per-run and campaign
// distribution — delays, rates, frame rates, SSIM, fleet shares, the live
// telemetry histograms — is a Sketch. It is mergeable and log-bucketed with a
// fixed layout: adding a sample is one table lookup and one increment,
// memory is O(buckets) — bounded by the value range, not the sample count —
// and quantile/CDF queries come back within SketchAlpha relative error. Up
// to sketchExactCap samples the sketch keeps the raw values and answers
// exactly, so small distributions behave like a Dist.
//
// Merge is deterministic: the merged sketch's query answers are a pure
// function of the combined sample multiset, independent of merge order or
// grouping (the float Sum accumulates in fold order, so Mean may differ in
// the last ulps across groupings — bucket counts, N, Min, Max and quantiles
// do not). The zero value is ready to use.
type Sketch struct {
	// exact holds the raw samples until the sketch spills: past
	// sketchExactCap samples, or when a bucketed sketch is merged in.
	exact   []float64
	sorted  bool
	spilled bool
	// reused is set by Reset: a sketch that is emptied and refilled keeps
	// its exact buffer through a spill, for the next Reset to hand back.
	reused bool
	// pos and neg count positive samples and negative ones (neg by the
	// bucket of -v); zero counts exact zeros.
	pos, neg cells
	zero     int64
	// (lastLo, lastHi] are the edges of the positive bucket lastIdx the
	// latest table lookup found. Consecutive samples of a run (one frame's
	// packets, one second's rates) mostly share a bucket, and those skip
	// the lookup.
	lastLo, lastHi float64
	lastIdx        int32

	n        int64
	sum      float64
	min, max float64
}

// cells is a dense window of bucket counters: counts[j] counts bucket
// base+j. It widens on demand, so it spans the buckets the samples reached
// (plus slack), whatever their unit.
type cells struct {
	base   int32
	counts []int64
}

// cellSlack is the extra width a window takes on the side it grows.
const cellSlack = 4

// add counts c samples into bucket idx.
func (w *cells) add(idx int32, c int64) {
	if j := uint32(idx - w.base); j < uint32(len(w.counts)) {
		w.counts[j] += c
		return
	}
	w.cover(idx, idx)
	w.counts[idx-w.base] += c
}

// cover widens the window to hold buckets lo..hi. The side that grows takes
// a quarter of the current width (plus cellSlack) as slack, so a drifting
// sample range copies the window a logarithmic number of times and the
// slack stays near a fifth of the width.
func (w *cells) cover(lo, hi int32) {
	if len(w.counts) == 0 {
		w.base, w.counts = lo-cellSlack, make([]int64, hi-lo+1+2*cellSlack)
		return
	}
	top := w.base + int32(len(w.counts)) - 1
	if lo >= w.base && hi <= top {
		return
	}
	pad := int32(len(w.counts))/4 + cellSlack
	newLo, newHi := w.base, top
	if lo < newLo {
		newLo = lo - pad
	}
	if hi > newHi {
		newHi = hi + pad
	}
	grown := make([]int64, newHi-newLo+1)
	copy(grown[w.base-newLo:], w.counts)
	w.base, w.counts = newLo, grown
}

// merge adds o's counts into w.
func (w *cells) merge(o *cells) {
	first, last := -1, -1
	for j, c := range o.counts {
		if c != 0 {
			if first < 0 {
				first = j
			}
			last = j
		}
	}
	if first < 0 {
		return
	}
	w.cover(o.base+int32(first), o.base+int32(last))
	off := o.base - w.base
	for j := first; j <= last; j++ {
		w.counts[int32(j)+off] += o.counts[j]
	}
}

// Add records one sample. Non-finite samples are ignored (a NaN cannot be
// ranked, an infinity has no bucket, and one pathological sample must not
// poison a campaign aggregate).
func (s *Sketch) Add(v float64) {
	if v-v != 0 { // NaN or ±Inf
		return
	}
	if s.n == 0 {
		s.min, s.max = v, v
	} else if v < s.min {
		s.min = v
	} else if v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	switch {
	case v > s.lastLo && v <= s.lastHi:
		s.pos.counts[s.lastIdx-s.pos.base]++
	case s.spilled:
		s.count(v)
	case s.n <= sketchExactCap:
		if len(s.exact) == cap(s.exact) {
			s.growExact()
		}
		s.exact = append(s.exact, v)
		s.sorted = false
	default:
		s.spill()
		s.count(v)
	}
}

// sketchExactFirst is the exact buffer's first capacity. Most per-run
// distributions that stay exact hold a handful of samples; one that grows
// past this goes straight to sketchExactCap, so filling the buffer takes two
// allocations, not one per doubling.
const sketchExactFirst = 16

// growExact makes room for one more exact sample.
func (s *Sketch) growExact() {
	n := sketchExactFirst
	if cap(s.exact) >= sketchExactFirst {
		n = sketchExactCap
	}
	grown := make([]float64, len(s.exact), n)
	copy(grown, s.exact)
	s.exact = grown
}

// count files one sample into its bucket on the bucketed path.
func (s *Sketch) count(v float64) {
	switch {
	case v > 0 && inTable(v):
		j := sketchEdge(v)
		s.lastLo, s.lastHi, s.lastIdx = sketchEdges[j-1], sketchEdges[j], int32(j+sketchTabMin-1)
		s.pos.add(s.lastIdx, 1)
	case v > 0:
		s.pos.add(sketchIndexLog(v), 1)
	case v < 0:
		s.neg.add(sketchIndex(-v), 1)
	default:
		s.zero++
	}
}

// spill folds the exact samples into buckets and drops them. A reused
// sketch keeps the buffer, emptied, for Reset to hand back; any other — a
// run's first, a summary's, a registry's — lets it go, so what a caller
// keeps holds no buffer nothing will refill. Each window is first widened
// once to the range the samples span, so filling it does not regrow it
// sample by sample.
func (s *Sketch) spill() {
	if s.spilled {
		return
	}
	s.spilled = true
	// The least and the greatest magnitude of each sign; 0 when none.
	var pos, neg [2]float64
	for _, v := range s.exact {
		r := &pos
		if v < 0 {
			r = &neg
		} else if v == 0 {
			continue
		}
		m := math.Abs(v)
		if r[0] == 0 || m < r[0] {
			r[0] = m
		}
		r[1] = max(r[1], m)
	}
	if pos[1] > 0 {
		s.pos.cover(sketchIndex(pos[0]), sketchIndex(pos[1]))
	}
	if neg[1] > 0 {
		s.neg.cover(sketchIndex(neg[0]), sketchIndex(neg[1]))
	}
	for _, v := range s.exact {
		s.count(v)
	}
	s.sorted = false
	if s.reused {
		s.exact = s.exact[:0]
	} else {
		s.exact = nil
	}
}

// Reset empties s: it answers every query, and marshals, as the zero value
// does. It keeps the storage s grew — the exact buffer and the bucket
// windows — and marks s reused, so it keeps the exact buffer through its
// next spills too: a sketch reused run after run fills storage that is
// already there. Buckets, which reports that storage, is the one method
// a reset sketch answers differently from a new one.
func (s *Sketch) Reset() {
	clear(s.pos.counts)
	clear(s.neg.counts)
	*s = Sketch{exact: s.exact[:0], pos: s.pos, neg: s.neg, reused: true}
}

// Merge folds o into s. o is not modified, and s shares no storage with it
// afterwards. The result's bucket counts (and therefore its quantiles, CDF
// and fractions) depend only on the combined sample multiset, not on the
// order or grouping of merges.
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
	if !s.spilled && !o.spilled && s.n <= sketchExactCap {
		s.exact = append(s.exact, o.exact...)
		s.sorted = false
		return
	}
	s.spill()
	if !o.spilled {
		for _, v := range o.exact {
			s.count(v)
		}
		return
	}
	s.pos.merge(&o.pos)
	s.neg.merge(&o.neg)
	s.zero += o.zero
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

// walk hands fn every occupied bucket in ascending value order — its
// index, the sign of its samples (-1, 0 for the zero cell, +1) and its
// count — until fn returns false.
func (s *Sketch) walk(fn func(idx int32, sign int, c int64) bool) {
	for j := len(s.neg.counts) - 1; j >= 0; j-- {
		if c := s.neg.counts[j]; c != 0 && !fn(s.neg.base+int32(j), -1, c) {
			return
		}
	}
	if s.zero != 0 && !fn(0, 0, s.zero) {
		return
	}
	for j, c := range s.pos.counts {
		if c != 0 && !fn(s.pos.base+int32(j), 1, c) {
			return
		}
	}
}

// rep is a bucket's representative value.
func rep(idx int32, sign int) float64 {
	return float64(sign) * sketchRep(idx)
}

// orderStat returns the k-th smallest sample's representative (0-indexed)
// from the bucketed path, clamped to the exactly-tracked extremes.
func (s *Sketch) orderStat(k int64) float64 {
	v := s.max
	s.walk(func(idx int32, sign int, c int64) bool {
		if k -= c; k < 0 {
			v = rep(idx, sign)
			return false
		}
		return true
	})
	return math.Min(math.Max(v, s.min), s.max)
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
	if !s.spilled {
		s.sortExact()
		if lo == hi {
			return s.exact[lo]
		}
		frac := pos - float64(lo)
		return s.exact[lo]*(1-frac) + s.exact[hi]*frac
	}
	vlo := s.orderStat(lo)
	if lo == hi {
		return vlo
	}
	vhi := s.orderStat(hi)
	frac := pos - float64(lo)
	return vlo*(1-frac) + vhi*frac
}

// Median returns the 0.5-quantile.
func (s *Sketch) Median() float64 { return s.Quantile(0.5) }

// countWhere counts the samples whose bucket representative passes keep,
// walking until it fails (keep is monotone: true, then false).
func (s *Sketch) countWhere(keep func(v float64) bool) int64 {
	var n int64
	s.walk(func(idx int32, sign int, c int64) bool {
		if !keep(rep(idx, sign)) {
			return false
		}
		n += c
		return true
	})
	return n
}

// FracBelow returns the fraction of samples strictly below x. On the
// bucketed path a bucket counts as below x iff its representative is, so
// the boundary error is at most one bucket (±SketchAlpha in value).
func (s *Sketch) FracBelow(x float64) float64 {
	if s.n == 0 {
		return 0
	}
	if !s.spilled {
		s.sortExact()
		i := sort.SearchFloat64s(s.exact, x)
		return float64(i) / float64(s.n)
	}
	return float64(s.countWhere(func(v float64) bool { return v < x })) / float64(s.n)
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
	if !s.spilled {
		s.sortExact()
	}
	for i, x := range xs {
		var le int64
		if s.spilled {
			le = s.countWhere(func(v float64) bool { return v <= x })
		} else {
			le = int64(sort.Search(len(s.exact), func(k int) bool { return s.exact[k] > x }))
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

// Buckets returns the number of cells the sketch retains: raw samples on
// the exact path, the width of its bucket windows once spilled. This is
// the sketch's memory footprint, 8 bytes a cell.
func (s *Sketch) Buckets() int {
	return len(s.exact) + len(s.pos.counts) + len(s.neg.counts)
}

// bucketed returns s, or a copy of s moved onto the bucketed path if s
// still holds its samples exactly.
func (s *Sketch) bucketed() *Sketch {
	if s.spilled {
		return s
	}
	b := &Sketch{spilled: true, n: s.n, sum: s.sum, min: s.min, max: s.max}
	for _, v := range s.exact {
		b.count(v)
	}
	return b
}

// EachBucket hands fn every occupied bucket in ascending value order with
// its upper edge and count: -gamma^(i-1) for negative bucket i, 0 for the
// zero cell, gamma^i for positive bucket i — the cumulative layout of a
// Prometheus histogram. A sketch on the exact path reports the buckets its
// samples fall in.
func (s *Sketch) EachBucket(fn func(upper float64, count int64)) {
	s.bucketed().walk(func(idx int32, sign int, c int64) bool {
		switch sign {
		case -1:
			fn(-BucketUpper(idx-1), c)
		case 0:
			fn(0, c)
		default:
			fn(BucketUpper(idx), c)
		}
		return true
	})
}
