package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDistEmpty(t *testing.T) {
	var d Dist
	if d.N() != 0 || d.Mean() != 0 || d.Quantile(0.5) != 0 || d.FracBelow(1) != 0 {
		t.Error("empty Dist should return zeros")
	}
	if got := d.CDF([]float64{1, 2}); got[0] != 0 || got[1] != 0 {
		t.Error("empty Dist CDF should be zero")
	}
	// Regression: an empty distribution used to report FracAtOrAbove = 1,
	// letting shape checks like FPS.FracAtOrAbove(29) pass vacuously.
	if got := d.FracAtOrAbove(29); got != 0 {
		t.Errorf("empty Dist FracAtOrAbove = %v, want 0", got)
	}
}

func TestDistBasicStats(t *testing.T) {
	var d Dist
	for _, v := range []float64{4, 1, 3, 2, 5} {
		d.Add(v)
	}
	if d.N() != 5 {
		t.Errorf("N = %d", d.N())
	}
	if !almost(d.Mean(), 3) {
		t.Errorf("Mean = %v", d.Mean())
	}
	if !almost(d.Median(), 3) {
		t.Errorf("Median = %v", d.Median())
	}
	if !almost(d.Quantile(0), 1) || !almost(d.Max(), 5) {
		t.Errorf("Min/Max = %v/%v", d.Quantile(0), d.Max())
	}
}

func TestQuantileInterpolation(t *testing.T) {
	var d Dist
	d.Add(0)
	d.Add(10)
	if got := d.Quantile(0.25); !almost(got, 2.5) {
		t.Errorf("Quantile(0.25) = %v, want 2.5", got)
	}
	if got := d.Quantile(-1); !almost(got, 0) {
		t.Errorf("Quantile(-1) = %v, want clamp to min", got)
	}
	if got := d.Quantile(2); !almost(got, 10) {
		t.Errorf("Quantile(2) = %v, want clamp to max", got)
	}
}

func TestFracBelow(t *testing.T) {
	var d Dist
	for _, v := range []float64{1, 2, 2, 3} {
		d.Add(v)
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0}, {1.5, 0.25}, {2, 0.25}, {2.5, 0.75}, {4, 1},
	}
	for _, c := range cases {
		if got := d.FracBelow(c.x); !almost(got, c.want) {
			t.Errorf("FracBelow(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := d.FracAtOrAbove(2); !almost(got, 0.75) {
		t.Errorf("FracAtOrAbove(2) = %v, want 0.75", got)
	}
}

func TestCDFIsInclusive(t *testing.T) {
	var d Dist
	for _, v := range []float64{1, 2, 3} {
		d.Add(v)
	}
	got := d.CDF([]float64{0, 1, 2, 3, 4})
	want := []float64{0, 1.0 / 3, 2.0 / 3, 1, 1}
	for i := range want {
		if !almost(got[i], want[i]) {
			t.Errorf("CDF[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBoxSummary(t *testing.T) {
	var d Dist
	for i := 1; i <= 5; i++ {
		d.Add(float64(i))
	}
	b := d.Box()
	if b.N != 5 || !almost(b.Min, 1) || !almost(b.Q1, 2) || !almost(b.Median, 3) ||
		!almost(b.Q3, 4) || !almost(b.Max, 5) || !almost(b.Mean, 3) {
		t.Errorf("Box = %+v", b)
	}
	if b.String() == "" {
		t.Error("Box.String empty")
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(vals []float64, q1, q2 float64) bool {
		if len(vals) == 0 {
			return true
		}
		var d Dist
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			d.Add(v)
		}
		a := math.Mod(math.Abs(q1), 1)
		b := math.Mod(math.Abs(q2), 1)
		if a > b {
			a, b = b, a
		}
		qa, qb := d.Quantile(a), d.Quantile(b)
		return qa <= qb && qa >= d.Quantile(0) && qb <= d.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FracBelow is the empirical CDF left limit — consistent with a
// direct count.
func TestPropertyFracBelowCount(t *testing.T) {
	f := func(vals []float64, x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		var d Dist
		n := 0
		count := 0
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			d.Add(v)
			n++
			if v < x {
				count++
			}
		}
		if n == 0 {
			return true
		}
		return almost(d.FracBelow(x), float64(count)/float64(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CDF output is monotone for sorted inputs.
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(vals []float64, xs []float64) bool {
		var d Dist
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			d.Add(v)
		}
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) {
				clean = append(clean, x)
			}
		}
		sort.Float64s(clean)
		out := d.CDF(clean)
		for i := 1; i < len(out); i++ {
			if out[i] < out[i-1] {
				return false
			}
		}
		for _, p := range out {
			if p < 0 || p > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSamplesNotAliased is the regression test for the Samples aliasing
// footgun: quantile queries sort the internal slice in place, which used to
// silently reorder a previously returned Samples() slice.
func TestSamplesNotAliased(t *testing.T) {
	var d Dist
	in := []float64{5, 1, 4, 2, 3}
	for _, v := range in {
		d.Add(v)
	}
	got := d.Samples()
	d.Quantile(0.5) // sorts internally
	for i, v := range in {
		if got[i] != v {
			t.Fatalf("Samples() slice reordered by Quantile: got %v, want %v", got, in)
		}
	}
	// Mutating the returned slice must not corrupt the distribution.
	got[0] = 1e9
	if d.Max() != 5 {
		t.Fatalf("mutating Samples() corrupted the Dist: max %g", d.Max())
	}
}
