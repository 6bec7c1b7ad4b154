package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rpivideo/internal/metrics"
)

// The registry's histogram is a metrics.Sketch; these tests hold it to what
// the live telemetry and the registry wire format need of it.

func TestLogHistogramObserve(t *testing.T) {
	h := NewRegistry().LogHistogram("frame_delay_ms")
	for _, v := range []float64{10, 10.05, 100, 0.5} {
		h.Add(v)
	}
	if h.N() != 4 {
		t.Errorf("Count = %d, want 4", h.N())
	}
	if want := 10 + 10.05 + 100 + 0.5; h.Sum() != want {
		t.Errorf("Sum = %g, want %g", h.Sum(), want)
	}
	// 10 and 10.05 differ by less than the ~2% bucket width, so they share
	// a bucket; 100 and 0.5 are elsewhere.
	var total int64
	cells := 0
	h.EachBucket(func(upper float64, count int64) {
		if upper < 0.5 || upper > 103 {
			t.Errorf("bucket upper %g outside the observed range", upper)
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

// TestLogHistogramEdgeValues: zero lands in the zero cell and a negative
// sample in the mirrored buckets; NaN and ±Inf are not samples and touch
// nothing. Extreme magnitudes get their own buckets.
func TestLogHistogramEdgeValues(t *testing.T) {
	h := NewRegistry().LogHistogram("h")
	for _, v := range []float64{0, -3, math.NaN(), math.Inf(1), math.Inf(-1), 2} {
		h.Add(v)
	}
	if h.N() != 3 || h.Sum() != -1 {
		t.Errorf("Count = %d, Sum = %g, want 3 and -1 (0, -3 and 2)", h.N(), h.Sum())
	}
	var uppers []float64
	h.EachBucket(func(upper float64, _ int64) { uppers = append(uppers, upper) })
	if len(uppers) != 3 || !(uppers[0] < -2.9) || uppers[1] != 0 || !(uppers[2] >= 2) {
		t.Errorf("bucket edges %v, want one below -3, the zero cell, one at 2", uppers)
	}
	h.Add(1e300)
	h.Add(1e-300)
	if h.N() != 5 || h.Max() != 1e300 {
		t.Errorf("extreme magnitudes lost: count %d, max %g", h.N(), h.Max())
	}
}

func TestLogHistogramMergeAndClone(t *testing.T) {
	reg := NewRegistry()
	a, b := reg.LogHistogram("a"), reg.LogHistogram("b")
	for _, v := range []float64{1, 50, 0} {
		a.Add(v)
	}
	for _, v := range []float64{50, 2000} {
		b.Add(v)
	}
	var c LogHistogram // a copy of a, then b
	c.Merge(a)
	c.Merge(b)
	if c.N() != 5 {
		t.Errorf("merged count = %d, want 5", c.N())
	}
	if want := 1 + 50 + 50 + 2000.0; c.Sum() != want {
		t.Errorf("merged Sum = %g, want %g", c.Sum(), want)
	}
	// Merging into the copy left the source untouched.
	a.Add(7)
	if a.N() != 4 || c.N() != 5 {
		t.Errorf("copy and source share storage: counts %d and %d", a.N(), c.N())
	}
	// An equivalent histogram built by direct observation matches.
	var d LogHistogram
	for _, v := range []float64{1, 50, 0, 50, 2000} {
		d.Add(v)
	}
	j1, _ := json.Marshal(&c)
	j2, _ := json.Marshal(&d)
	if !bytes.Equal(j1, j2) {
		t.Errorf("merge result differs from direct observation:\n%s\n%s", j1, j2)
	}
}

func TestLogHistogramJSONRoundTrip(t *testing.T) {
	var h LogHistogram
	for _, v := range []float64{0.25, 33, 33.1, 900, -1, 0, math.NaN()} {
		h.Add(v)
	}
	data, err := json.Marshal(&h)
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
	if back.N() != h.N() || back.Sum() != h.Sum() || back.Quantile(0) != h.Quantile(0) || back.Max() != h.Max() {
		t.Errorf("round trip lost totals: %d/%g/[%g,%g] vs %d/%g/[%g,%g]",
			back.N(), back.Sum(), back.Quantile(0), back.Max(), h.N(), h.Sum(), h.Quantile(0), h.Max())
	}
	// The shape bench/ reads a quantile from: count, zero and buckets keyed
	// by bucket index.
	var wire struct {
		Count   int64            `json:"count"`
		Zero    int64            `json:"zero"`
		Buckets map[string]int64 `json:"buckets"`
	}
	if err := json.Unmarshal(data, &wire); err != nil || wire.Count != 6 || wire.Zero != 1 || len(wire.Buckets) != 3 {
		t.Errorf("wire shape %+v (%v), want count 6, zero 1 and 3 positive buckets", wire, err)
	}
	// Bad bucket keys are rejected, not silently dropped.
	for _, bad := range []string{
		`{"count":1,"sum":1,"buckets":{"x":1}}`,
		`{"count":1,"sum":1,"buckets":{"99999":1}}`,
	} {
		var lh LogHistogram
		if err := json.Unmarshal([]byte(bad), &lh); err == nil {
			t.Errorf("Unmarshal(%s) succeeded, want error", bad)
		}
	}
}

// TestLogHistogramJSONRejectsBadCounts: the histogram wire format comes from
// outside the process (-compare baselines, dist shards), so a negative
// bucket count, or buckets that do not add up to the count, is an error —
// not a histogram whose quantiles walk off its own buckets.
func TestLogHistogramJSONRejectsBadCounts(t *testing.T) {
	for _, bad := range []string{
		`{"count":1,"sum":1,"buckets":{"5":-1,"6":2}}`,
		`{"count":0,"sum":0,"buckets":{"5":-1,"6":1}}`,
		`{"count":5,"sum":1,"buckets":{"5":1}}`,
		`{"count":1,"sum":1,"zero":1,"buckets":{"5":1}}`,
		`{"count":-2,"sum":1}`,
	} {
		var h LogHistogram
		if err := json.Unmarshal([]byte(bad), &h); err == nil {
			t.Errorf("Unmarshal(%s) accepted", bad)
		}
	}
}

// TestLogHistogramBucketResolution: the layout's ~1% relative accuracy — a
// bucket's upper edge is within alpha of the sample that landed there.
func TestLogHistogramBucketResolution(t *testing.T) {
	var h LogHistogram
	samples := []float64{0.1, 1, 7.3, 42, 137, 5000}
	for _, v := range samples {
		h.Add(v)
	}
	i := 0
	h.EachBucket(func(upper float64, _ int64) {
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

// logFormUpper is the upper edge of the bucket the Log form puts v in: one
// math.Log per sample, as before metrics.BucketIndex became table-driven.
// Negative samples mirror into the bucket of -v, whose upper edge is
// -gamma^(i-1); zero has the zero cell.
func logFormUpper(v float64) float64 {
	if v == 0 {
		return 0
	}
	gamma := (1 + metrics.SketchAlpha) / (1 - metrics.SketchAlpha)
	idx := int32(math.Ceil(math.Log(math.Abs(v)) / math.Log(gamma)))
	if v < 0 {
		return -metrics.BucketUpper(idx - 1)
	}
	return metrics.BucketUpper(idx)
}

// TestLogHistogramObserveMatchesLogForm: every sample lands in the bucket
// the Log form puts it in — zeros, negatives, subnormals, values far beyond
// the index table at either end, and 500 000 log-uniform delays between
// 1 µs and 3 h in milliseconds — and the non-values (NaN, ±Inf) nowhere.
func TestLogHistogramObserveMatchesLogForm(t *testing.T) {
	samples := []float64{
		0, math.Copysign(0, -1), -1, -1e-320, math.SmallestNonzeroFloat64, 1e-320,
		2.2250738585072014e-308, 1e-300, 1e-9, metrics.BucketUpper(-520), metrics.BucketUpper(720),
		1e9, 1e300, math.MaxFloat64, -math.MaxFloat64,
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500_000; i++ {
		samples = append(samples, math.Exp(math.Log(1e-3)+rng.Float64()*math.Log(1e10)))
	}
	var h LogHistogram
	want := map[float64]int64{}
	for _, v := range samples {
		h.Add(v)
		want[logFormUpper(v)]++
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		h.Add(v)
	}
	got := map[float64]int64{}
	h.EachBucket(func(upper float64, c int64) { got[upper] += c })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("buckets differ from the Log form's (%d vs %d occupied)", len(got), len(want))
	}
	if h.N() != len(samples) {
		t.Errorf("Count = %d, want %d", h.N(), len(samples))
	}
}
