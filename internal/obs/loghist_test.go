package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"rpivideo/internal/metrics"
)

func TestLogHistogramObserve(t *testing.T) {
	h := NewLogHistogram()
	for _, v := range []float64{10, 10.05, 100, 0.5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("Count = %d, want 4", h.Count())
	}
	if want := 10 + 10.05 + 100 + 0.5; h.Sum() != want {
		t.Errorf("Sum = %g, want %g", h.Sum(), want)
	}
	// 10 and 10.05 differ by less than the ~2% bucket width, so they share
	// a bucket; 100 and 0.5 are elsewhere.
	var total int64
	cells := 0
	h.each(func(idx int32, upper float64, count int64) {
		if upper < 0.5 || upper > 103 {
			t.Errorf("bucket upper %g outside the observed range", upper)
		}
		if got := metrics.BucketUpper(idx); got != upper {
			t.Errorf("upper edge mismatch for idx %d: %g vs %g", idx, got, upper)
		}
		total += count
		cells++
	})
	if cells != 3 {
		t.Errorf("occupied cells = %d, want 3 (10 and 10.05 share one)", cells)
	}
	if total != 4 {
		t.Errorf("bucket counts sum to %d, want 4", total)
	}
}

// TestLogHistogramEdgeValues: non-positive and NaN samples land in the zero
// cell without touching Sum; +Inf counts without poisoning Sum.
func TestLogHistogramEdgeValues(t *testing.T) {
	h := NewLogHistogram()
	h.Observe(0)
	h.Observe(-3)
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(2)
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if h.zero != 3 {
		t.Errorf("zero cell = %d, want 3 (0, -3, NaN)", h.zero)
	}
	if h.Sum() != 2 {
		t.Errorf("Sum = %g, want 2 (only the finite positive sample)", h.Sum())
	}
	// The +Inf observation clamps to the top cell.
	topSeen := false
	h.each(func(idx int32, _ float64, count int64) {
		if idx == logHistMaxIdx {
			topSeen = true
			if count != 1 {
				t.Errorf("top cell count = %d, want 1", count)
			}
		}
	})
	if !topSeen {
		t.Error("+Inf observation did not reach the top cell")
	}
	// Values beyond the index window clamp to the edges instead of panicking.
	h.Observe(1e300)
	h.Observe(1e-300)
}

func TestLogHistogramMergeAndClone(t *testing.T) {
	a, b := NewLogHistogram(), NewLogHistogram()
	for _, v := range []float64{1, 50, 0} {
		a.Observe(v)
	}
	for _, v := range []float64{50, 2000} {
		b.Observe(v)
	}
	c := a.Clone()
	c.Merge(b)
	if c.Count() != 5 || c.zero != 1 {
		t.Errorf("merged count/zero = %d/%d, want 5/1", c.Count(), c.zero)
	}
	if want := 1 + 50 + 50 + 2000.0; c.Sum() != want {
		t.Errorf("merged Sum = %g, want %g", c.Sum(), want)
	}
	// Merging into the clone left the source untouched.
	if a.Count() != 3 {
		t.Errorf("source histogram mutated by Clone+Merge: count %d", a.Count())
	}
	// An equivalent histogram built by direct observation matches.
	d := NewLogHistogram()
	for _, v := range []float64{1, 50, 0, 50, 2000} {
		d.Observe(v)
	}
	j1, _ := json.Marshal(c)
	j2, _ := json.Marshal(d)
	if !bytes.Equal(j1, j2) {
		t.Errorf("merge result differs from direct observation:\n%s\n%s", j1, j2)
	}
}

func TestLogHistogramJSONRoundTrip(t *testing.T) {
	h := NewLogHistogram()
	for _, v := range []float64{0.25, 33, 33.1, 900, -1, math.NaN()} {
		h.Observe(v)
	}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back LogHistogram
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	data2, err := json.Marshal(&back)
	if err != nil {
		t.Fatalf("re-Marshal: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Errorf("round trip not byte-identical:\n%s\n%s", data, data2)
	}
	if back.Count() != h.Count() || back.Sum() != h.Sum() || back.zero != h.zero {
		t.Errorf("round trip lost totals: %d/%g/%d vs %d/%g/%d",
			back.Count(), back.Sum(), back.zero, h.Count(), h.Sum(), h.zero)
	}
	// Bad bucket keys are rejected, not silently dropped.
	for _, bad := range []string{
		`{"count":1,"sum":1,"buckets":{"x":1}}`,
		`{"count":1,"sum":1,"buckets":{"9999":1}}`,
	} {
		var lh LogHistogram
		if err := json.Unmarshal([]byte(bad), &lh); err == nil {
			t.Errorf("Unmarshal(%s) succeeded, want error", bad)
		}
	}
}

// TestLogHistogramBucketResolution: the layout inherits the sketch's ~1%
// relative accuracy — a bucket's upper edge is within alpha of the sample
// that landed there.
func TestLogHistogramBucketResolution(t *testing.T) {
	h := NewLogHistogram()
	samples := []float64{0.1, 1, 7.3, 42, 137, 5000}
	for _, v := range samples {
		h.Observe(v)
	}
	i := 0
	h.each(func(_ int32, upper float64, _ int64) {
		v := samples[i]
		if rel := math.Abs(upper-v) / v; rel > 2*metrics.SketchAlpha {
			t.Errorf("sample %g mapped to bucket edge %g (relative error %g)", v, upper, rel)
		}
		i++
	})
	if i != len(samples) {
		t.Errorf("walked %d buckets, want %d", i, len(samples))
	}
}

// logFormCell is the cell Observe chose before metrics.BucketIndex became
// table-driven: one math.Log per sample, clamped to the window. -1 stands
// for the zero cell.
func logFormCell(v float64) int {
	if !(v > 0) {
		return -1
	}
	if math.IsInf(v, 1) {
		return logHistCells - 1
	}
	gamma := (1 + metrics.SketchAlpha) / (1 - metrics.SketchAlpha)
	idx := int32(math.Ceil(math.Log(v) / math.Log(gamma)))
	if idx < logHistMinIdx {
		idx = logHistMinIdx
	} else if idx > logHistMaxIdx {
		idx = logHistMaxIdx
	}
	return int(idx) - logHistMinIdx
}

// TestLogHistogramObserveMatchesLogForm: every sample lands in the cell the
// Log form puts it in — the non-values (zero, negatives, NaN, ±Inf),
// subnormals, values beyond either end of the window, and 500 000
// log-uniform delays between 1 µs and 3 h in milliseconds.
func TestLogHistogramObserveMatchesLogForm(t *testing.T) {
	samples := []float64{
		0, math.Copysign(0, -1), -1, -1e-320, math.Inf(-1), math.NaN(), math.Inf(1),
		math.SmallestNonzeroFloat64, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-9,
		metrics.BucketUpper(logHistMinIdx), metrics.BucketUpper(logHistMinIdx - 1), metrics.BucketUpper(logHistMinIdx - 20),
		metrics.BucketUpper(logHistMaxIdx), metrics.BucketUpper(logHistMaxIdx + 1), metrics.BucketUpper(logHistMaxIdx + 20),
		1e9, 1e300, math.MaxFloat64,
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500_000; i++ {
		samples = append(samples, math.Exp(math.Log(1e-3)+rng.Float64()*math.Log(1e10)))
	}
	h := NewLogHistogram()
	for _, v := range samples {
		cell := &h.zero
		if c := logFormCell(v); c >= 0 {
			cell = &h.counts[c]
		}
		before := *cell
		h.Observe(v)
		if *cell != before+1 {
			t.Fatalf("Observe(%g) did not count into cell %d, where the Log form puts it", v, logFormCell(v))
		}
	}
	if h.Count() != int64(len(samples)) {
		t.Errorf("Count = %d, want %d", h.Count(), len(samples))
	}
}
