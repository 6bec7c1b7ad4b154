package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// sketchStates are sample sets that leave a sketch in each of its states:
// empty, exact, spilled, with negative samples (exact and spilled), with zeros, and
// fed non-finite samples it skips.
func sketchStates() map[string][]float64 {
	rng := rand.New(rand.NewSource(44))
	draw := func(n int, f func(i int) float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	return map[string][]float64{
		"empty":          nil,
		"exact":          draw(40, func(int) float64 { return 1 + 100*rng.Float64() }),
		"spilled":        draw(3000, func(int) float64 { return math.Exp(rng.NormFloat64() * 3) }),
		"negative-exact": draw(60, func(int) float64 { return -math.Exp(rng.NormFloat64()) }),
		"negative-spilled": draw(2000, func(i int) float64 {
			return float64(1-2*(i%2)) * math.Exp(rng.NormFloat64()*2)
		}),
		"zero": draw(500, func(i int) float64 { return float64(i%3) * rng.Float64() }),
		"non-finite": draw(300, func(i int) float64 {
			switch i % 4 {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1 - 2*(i%8/4))
			}
			return rng.Float64() * 10
		}),
	}
}

// answers renders every query a sketch answers, and its JSON.
func answers(s *Sketch) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d sum=%v mean=%v min=%v max=%v box=%+v\n", s.N(), s.Sum(), s.Mean(), s.Quantile(0), s.Max(), s.Box())
	for _, q := range []float64{0, 0.01, 0.1, 0.33, 0.5, 0.9, 0.99, 1} {
		fmt.Fprintf(&b, "q%v=%v ", q, s.Quantile(q))
	}
	xs := []float64{-100, -1, 0, 0.5, 1, 7, 1e3}
	for _, x := range xs {
		fmt.Fprintf(&b, "below%v=%v above%v=%v ", x, s.FracBelow(x), x, s.FracAtOrAbove(x))
	}
	fmt.Fprintf(&b, "\ncdf=%v\n", s.CDF(xs))
	s.EachBucket(func(upper float64, c int64) { fmt.Fprintf(&b, "[%v]=%d ", upper, c) })
	js, err := s.MarshalJSON()
	fmt.Fprintf(&b, "\njson=%s err=%v", js, err)
	return b.String()
}

func addAll(s *Sketch, samples []float64) {
	for _, v := range samples {
		s.Add(v)
	}
}

// TestSketchResetMatchesZero: a sketch Reset from any state answers every
// query, and marshals, as the zero value does, and after any samples are
// added to both the two still agree, down to what they hold.
func TestSketchResetMatchesZero(t *testing.T) {
	states := sketchStates()
	var zero Sketch
	want := answers(&zero)
	for from, a := range states {
		for refill, b := range states {
			var s Sketch
			addAll(&s, a)
			s.Reset()
			if got := answers(&s); got != want {
				t.Fatalf("reset from %s:\n%s\nwant the zero value's\n%s", from, got, want)
			}
			var fresh Sketch
			addAll(&s, b)
			addAll(&fresh, b)
			if got, want := answers(&s), answers(&fresh); got != want {
				t.Errorf("reset from %s, refilled as %s:\n%s\nwant\n%s", from, refill, got, want)
			}
			if got, want := contents(&s), contents(&fresh); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("reset from %s, refilled as %s: holds %v, a new sketch %v", from, refill, got, want)
			}
		}
	}
}

// TestSketchResetKeepsStorage: refilling a Reset sketch with the samples
// it held allocates nothing, on the exact path or spilled: the exact buffer
// the spill emptied and the bucket windows are the ones already grown.
func TestSketchResetKeepsStorage(t *testing.T) {
	for name, limit := range map[string]float64{"exact": 0, "negative-exact": 0, "spilled": 0, "negative-spilled": 0} {
		samples := sketchStates()[name]
		var s Sketch
		addAll(&s, samples)
		cells := s.Buckets()
		allocs := testing.AllocsPerRun(20, func() {
			s.Reset()
			addAll(&s, samples)
		})
		if allocs > limit || s.Buckets() != cells {
			t.Errorf("%s: a refill allocated %v times (at most %v) and keeps %d cells, %d before", name, allocs, limit, s.Buckets(), cells)
		}
	}
}

// TestSketchResetAfterSpillMatchesNew: a sketch that was never Reset — a
// run's first, a summary's, a registry's — drops its exact buffer when it
// spills, by Add or by Merge; a reused one keeps it, emptied, and the next
// Reset hands it back. A spilled sketch Reset answers every query, and
// marshals, as a new one does, and refilled with any state it answers and
// holds what a new sketch refilled alike does — the exact path included,
// without allocating its buffer again.
func TestSketchResetAfterSpillMatchesNew(t *testing.T) {
	states := sketchStates()
	var zero Sketch
	want := answers(&zero)
	var agg Sketch
	addAll(&agg, states["exact"])
	for _, from := range []string{"spilled", "negative-spilled"} {
		var s Sketch
		addAll(&s, states[from])
		if agg.Merge(&s); !s.spilled || cap(s.exact) != 0 || !agg.spilled || cap(agg.exact) != 0 {
			t.Fatalf("%s, never reset: spilled %v with %d exact slots kept, merged into: %v with %d; want both spilled with none",
				from, s.spilled, cap(s.exact), agg.spilled, cap(agg.exact))
		}
		for refill, b := range states {
			var s Sketch
			addAll(&s, states[from])
			s.Reset()
			addAll(&s, states[from])
			if !s.spilled || len(s.exact) != 0 || cap(s.exact) != sketchExactCap {
				t.Fatalf("%s, reused: spilled %v with %d of %d exact slots, want spilled with the full buffer kept, emptied", from, s.spilled, len(s.exact), cap(s.exact))
			}
			buf := &s.exact[:1][0]
			s.Reset()
			if got := answers(&s); got != want {
				t.Fatalf("reset from %s:\n%s\nwant a new sketch's\n%s", from, got, want)
			}
			var fresh Sketch
			if n := testing.AllocsPerRun(1, func() { s.Reset(); addAll(&s, b[:min(len(b), sketchExactCap)]) }); n != 0 {
				t.Errorf("reset from %s: refilling the exact path allocated %v times, want 0", from, n)
			}
			addAll(&s, b[min(len(b), sketchExactCap):])
			addAll(&fresh, b)
			if got, want := answers(&s), answers(&fresh); got != want {
				t.Errorf("reset from %s, refilled as %s:\n%s\nwant\n%s", from, refill, got, want)
			}
			if got, want := contents(&s), contents(&fresh); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("reset from %s, refilled as %s: holds %v, a new sketch %v", from, refill, got, want)
			}
			if cap(s.exact) == 0 || &s.exact[:1][0] != buf {
				t.Errorf("reset from %s, refilled as %s: the exact buffer was not handed back", from, refill)
			}
		}
	}
}

// TestSketchMergeNeverAliases: once s.Merge(o) returns, nothing done to o —
// a Reset and a refill, or more samples — changes s.
func TestSketchMergeNeverAliases(t *testing.T) {
	states := sketchStates()
	for into, a := range states {
		for from, b := range states {
			var s, o Sketch
			addAll(&s, a)
			addAll(&o, b)
			s.Merge(&o)
			before := answers(&s)
			o.Reset()
			addAll(&o, states["negative-spilled"])
			addAll(&o, a)
			if got := answers(&s); got != before {
				t.Errorf("%s merged with %s changed when the argument was reset and refilled", into, from)
			}
		}
	}
}
