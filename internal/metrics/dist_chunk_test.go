package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// flatDist is the oracle for Dist's storage: the one regrown slice Dist was
// before it kept full slices aside, with the same arithmetic.
type flatDist struct {
	samples []float64
	sorted  bool
	sum     float64
}

func (d *flatDist) add(v float64) {
	d.samples = append(d.samples, v)
	d.sorted = false
	d.sum += v
}

func (d *flatDist) sort() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}

func (d *flatDist) quantile(q float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.sort()
	if q <= 0 {
		return d.samples[0]
	}
	if q >= 1 {
		return d.samples[len(d.samples)-1]
	}
	pos := q * float64(len(d.samples)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	if lo == hi {
		return d.samples[lo]
	}
	frac := pos - float64(lo)
	return d.samples[lo]*(1-frac) + d.samples[hi]*frac
}

func (d *flatDist) stddev() float64 {
	n := len(d.samples)
	if n == 0 {
		return 0
	}
	mean := d.sum / float64(n)
	var ss float64
	for _, v := range d.samples {
		ss += (v - mean) * (v - mean)
	}
	return math.Sqrt(ss / float64(n))
}

func (d *flatDist) fracBelow(x float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.sort()
	return float64(sort.SearchFloat64s(d.samples, x)) / float64(len(d.samples))
}

func (d *flatDist) cdf(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(d.samples) == 0 {
		return out
	}
	d.sort()
	for i, x := range xs {
		j := sort.Search(len(d.samples), func(k int) bool { return d.samples[k] > x })
		out[i] = float64(j) / float64(len(d.samples))
	}
	return out
}

// distPair feeds a Dist and its oracle the same n samples: delays in
// milliseconds with ties, a heavy tail and a few negatives.
func distPair(rng *rand.Rand, n int) (*Dist, *flatDist) {
	var d Dist
	var o flatDist
	for i := 0; i < n; i++ {
		v := math.Round(rng.ExpFloat64()*4000) / 100
		if rng.Intn(50) == 0 {
			v = -v
		}
		d.Add(v)
		o.add(v)
	}
	return &d, &o
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, oracle %v", what, i, got[i], want[i])
		}
	}
}

var distProbes = []float64{-1, 0, 0.001, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1, 2}

// checkReads compares every read that depends on all samples, bit for bit.
// It sorts both sides.
func checkReads(t *testing.T, what string, d *Dist, o *flatDist) {
	t.Helper()
	if d.N() != len(o.samples) {
		t.Fatalf("%s: N = %d, oracle %d", what, d.N(), len(o.samples))
	}
	xs := []float64{-5, 0, 1, 12.5, 40, 400}
	got := []float64{d.Sum(), d.Mean(), d.Stddev(), d.Min(), d.Max(), d.Median(), d.FracAtOrAbove(40)}
	want := []float64{o.sum, 0, o.stddev(), o.quantile(0), o.quantile(1), o.quantile(0.5), 0}
	if len(o.samples) > 0 {
		want[1] = o.sum / float64(len(o.samples))
		want[6] = 1 - o.fracBelow(40)
	}
	for _, q := range distProbes {
		got = append(got, d.Quantile(q))
		want = append(want, o.quantile(q))
	}
	for _, x := range xs {
		got = append(got, d.FracBelow(x))
		want = append(want, o.fracBelow(x))
	}
	got = append(got, d.CDF(xs)...)
	want = append(want, o.cdf(xs)...)
	sameFloats(t, what+": statistics", got, want)
	sameFloats(t, what+": Samples after a query", d.Samples(), o.samples)
}

// distSizes straddle the points where Add starts a new slice. The first one
// is wherever append's growth first reaches distChunk, found by the probe.
func distSizes() []int {
	var probe []float64
	for len(probe) < distChunk || len(probe) < cap(probe) {
		probe = append(probe, 0)
	}
	first := len(probe)
	return []int{0, 1, distChunk - 1, distChunk, distChunk + 1, first - 1, first, first + 1,
		first + distChunk - 1, first + distChunk, first + distChunk + 1, 3*distChunk + 7, 5*distChunk + 1}
}

// TestChunkedDistMatchesFlatOracle: however many slices a Dist is holding,
// every read is what one regrown slice would have given.
func TestChunkedDistMatchesFlatOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	chunked := 0
	for _, n := range distSizes() {
		d, o := distPair(rng, n)
		if d.full != nil {
			chunked++
		}
		// Insertion order first, before anything sorts; twice, because the
		// first call is the one that joins the slices.
		sameFloats(t, "Samples before a query", d.Samples(), o.samples)
		sameFloats(t, "Samples again", d.Samples(), o.samples)
		if d.full != nil || len(d.samples) != n {
			t.Fatalf("n=%d: a read left %d slices aside and %d samples flat", n, len(d.full), len(d.samples))
		}
		checkReads(t, "after Add", d, o)

		// Reads do not end the Dist's life: it keeps growing, across the
		// next boundary too, from sorted storage.
		for i := 0; i < distChunk+3; i++ {
			v := float64(rng.Intn(1000)) / 8
			d.Add(v)
			o.add(v)
		}
		sameFloats(t, "Samples after growing on", d.Samples(), o.samples)
		checkReads(t, "after growing on", d, o)
	}
	if chunked < 6 {
		t.Errorf("only %d of the sizes made Add set a slice aside", chunked)
	}

	// A query as the very first read, on slices still apart.
	d, o := distPair(rng, 3*distChunk+7)
	if d.full == nil {
		t.Fatal("3·chunk+7 samples sit in one slice")
	}
	checkReads(t, "query first", d, o)
}

// TestChunkedDistAddDist: folding into a Sketch reads the samples in
// insertion order wherever they sit (the order shows in the float sum).
func TestChunkedDistAddDist(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{sketchExactCap - 1, distChunk - 1, 3*distChunk + 7} {
		d, o := distPair(rng, n)
		var sk, skOracle Sketch
		sk.AddDist(d)
		for _, v := range o.samples {
			skOracle.Add(v)
		}
		if !reflect.DeepEqual(&sk, &skOracle) {
			t.Errorf("n=%d: Sketch.AddDist differs from adding the samples in order", n)
		}
		checkReads(t, "fold source", d, o)
	}
}

// TestDistCopyByValue: core's foldEndpoints copies finished Dists by value
// into the Result. Reading such a copy joins and sorts storage of its own:
// the source keeps its insertion order and may go on growing unseen.
func TestDistCopyByValue(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	src, o := distPair(rng, 3*distChunk+7)
	before := append([]float64(nil), o.samples...)
	cp := *src

	if got := cp.Quantile(0.5); got != o.quantile(0.5) { // joins and sorts the copy
		t.Fatalf("copy's median %v, oracle %v", got, o.quantile(0.5))
	}
	sameFloats(t, "source's Samples after the copy sorted", src.Samples(), before)

	for i := 0; i < distChunk; i++ {
		src.Add(-1e9)
	}
	if cp.N() != len(before) || cp.Min() != o.quantile(0) {
		t.Errorf("growing the source changed the copy: N %d (want %d), min %v (want %v)",
			cp.N(), len(before), cp.Min(), o.quantile(0))
	}
	checkReads(t, "copy", &cp, o)
	if src.N() != len(before)+distChunk || src.Min() != -1e9 {
		t.Errorf("source lost its own growth: N %d, min %v", src.N(), src.Min())
	}
}

const benchDistAdds = 1_000_000

// BenchmarkDistAdd is one sample into a Dist on its way to a million, the
// size of a long flight's per-packet distributions.
func BenchmarkDistAdd(b *testing.B) {
	b.ReportAllocs()
	var d Dist
	for i := 0; i < b.N; i++ {
		if i%benchDistAdds == 0 {
			d = Dist{}
		}
		d.Add(float64(i))
	}
}

// TestDistAddAllocatedBytes pins what a million Adds allocate at a tenth
// over the samples themselves. One regrown slice allocated about five times
// the samples.
func TestDistAddAllocatedBytes(t *testing.T) {
	var before, after runtime.MemStats
	var d Dist
	runtime.ReadMemStats(&before)
	for i := 0; i < benchDistAdds; i++ {
		d.Add(float64(i))
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc - before.TotalAlloc)
	if limit := 1.1 * 8 * benchDistAdds; got > limit {
		t.Errorf("%d Adds allocated %.0f bytes, want ≤ %.0f", benchDistAdds, got, limit)
	}
	if d.N() != benchDistAdds || d.Max() != benchDistAdds-1 {
		t.Errorf("N = %d, max = %v after %d Adds", d.N(), d.Max(), benchDistAdds)
	}
}
