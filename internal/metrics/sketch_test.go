package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

// sketchOf builds a sketch from samples.
func sketchOf(samples []float64) *Sketch {
	var s Sketch
	for _, v := range samples {
		s.Add(v)
	}
	return &s
}

func TestSketchEmpty(t *testing.T) {
	var s Sketch
	if s.N() != 0 || s.Mean() != 0 || s.Median() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Errorf("empty sketch not all-zero: %+v", s.Box())
	}
	if got := s.FracAtOrAbove(10); got != 0 {
		t.Errorf("empty FracAtOrAbove = %g, want 0 (no vacuous threshold passes)", got)
	}
	if got := s.CDF([]float64{1, 2}); got[0] != 0 || got[1] != 0 {
		t.Errorf("empty CDF = %v, want zeros", got)
	}
}

// TestSketchExactPathMatchesDist pins the small-N contract: at or below the
// exact cap the sketch is a Dist, bit for bit.
func TestSketchExactPathMatchesDist(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var d Dist
	var s Sketch
	for i := 0; i < sketchExactCap; i++ {
		v := rng.ExpFloat64() * 50
		d.Add(v)
		s.Add(v)
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1} {
		if dq, sq := d.Quantile(q), s.Quantile(q); dq != sq {
			t.Errorf("exact path q=%g: sketch %g != dist %g", q, sq, dq)
		}
	}
	for _, x := range []float64{1, 10, 50, 200} {
		if df, sf := d.FracBelow(x), s.FracBelow(x); df != sf {
			t.Errorf("exact path FracBelow(%g): sketch %g != dist %g", x, sf, df)
		}
	}
	xs := []float64{5, 25, 100}
	dc, sc := d.CDF(xs), s.CDF(xs)
	for i := range xs {
		if dc[i] != sc[i] {
			t.Errorf("exact path CDF(%g): sketch %g != dist %g", xs[i], sc[i], dc[i])
		}
	}
}

// TestSketchQuantileAccuracy checks the bucketed path's relative-error
// guarantee against exact Dist quantiles on a large sample.
func TestSketchQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var d Dist
	var s Sketch
	for i := 0; i < 50000; i++ {
		// Log-uniform over ~6 decades, the OWD/goodput value range.
		v := math.Exp(rng.Float64()*14 - 4)
		d.Add(v)
		s.Add(v)
	}
	for _, q := range []float64{0, 0.001, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999, 1} {
		dq, sq := d.Quantile(q), s.Quantile(q)
		if rel := math.Abs(sq-dq) / dq; rel > SketchAlpha {
			t.Errorf("q=%g: sketch %g vs dist %g, rel err %.4f > %.4f", q, sq, dq, rel, SketchAlpha)
		}
	}
	if s.Min() != d.Min() || s.Max() != d.Max() {
		t.Errorf("extremes not exact: sketch [%g,%g] vs dist [%g,%g]", s.Min(), s.Max(), d.Min(), d.Max())
	}
	if math.Abs(s.Mean()-d.Mean()) > 1e-9*math.Abs(d.Mean()) {
		t.Errorf("mean drifted: sketch %g vs dist %g", s.Mean(), d.Mean())
	}
	if s.Buckets() >= s.N()/10 {
		t.Errorf("sketch kept %d buckets for %d samples — not sublinear", s.Buckets(), s.N())
	}
}

// TestSketchNegativeAndZero covers the mirrored and zero cells.
func TestSketchNegativeAndZero(t *testing.T) {
	var s Sketch
	vals := make([]float64, 0, 600)
	for i := 0; i < 200; i++ {
		vals = append(vals, float64(i+1), -float64(i+1), 0)
	}
	for _, v := range vals {
		s.Add(v)
	}
	if s.N() != 600 {
		t.Fatalf("N = %d, want 600", s.N())
	}
	if med := s.Median(); math.Abs(med) > 1e-9 {
		t.Errorf("median of symmetric distribution = %g, want 0", med)
	}
	if s.Min() != -200 || s.Max() != 200 {
		t.Errorf("extremes [%g,%g], want [-200,200]", s.Min(), s.Max())
	}
	if fb := s.FracBelow(0); math.Abs(fb-200.0/600) > 0.01 {
		t.Errorf("FracBelow(0) = %g, want ≈1/3", fb)
	}
}

// TestSketchMergeOrderInvariance is the associativity/commutativity
// property test (testing/quick): for random sample batches, (a⊕b)⊕c and
// a⊕(c⊕b) answer every quantile and threshold query identically, and both
// agree with the exact Dist within one bucket's relative error.
func TestSketchMergeOrderInvariance(t *testing.T) {
	prop := func(a, b, c []float64, scale uint8) bool {
		// Map raw quick floats into a plausible positive-heavy range and
		// drop non-finite inputs (Add ignores NaN by contract anyway).
		clean := func(in []float64) []float64 {
			out := make([]float64, 0, len(in))
			for _, v := range in {
				v *= float64(scale%7+1) / 1e300
				if math.IsNaN(v) || math.IsInf(v, 0) {
					continue
				}
				out = append(out, v)
			}
			return out
		}
		a, b, c = clean(a), clean(b), clean(c)

		sa, sb, sc := sketchOf(a), sketchOf(b), sketchOf(c)
		// (a⊕b)⊕c
		var left Sketch
		left.Merge(sa)
		left.Merge(sb)
		left.Merge(sc)
		// a⊕(c⊕b)
		var inner Sketch
		inner.Merge(sc)
		inner.Merge(sb)
		var right Sketch
		right.Merge(sa)
		right.Merge(&inner)

		var d Dist
		for _, v := range a {
			d.Add(v)
		}
		for _, v := range b {
			d.Add(v)
		}
		for _, v := range c {
			d.Add(v)
		}

		if left.N() != right.N() || left.N() != d.N() {
			t.Logf("N mismatch: left %d right %d dist %d", left.N(), right.N(), d.N())
			return false
		}
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
			lq, rq := left.Quantile(q), right.Quantile(q)
			if lq != rq {
				t.Logf("q=%g: grouping changed the answer: %g vs %g", q, lq, rq)
				return false
			}
			dq := d.Quantile(q)
			// One bucket's relative error, plus interpolation slack when
			// the two closest ranks straddle buckets.
			tol := SketchAlpha*math.Abs(dq) + 1e-12
			if d.N() > 0 && math.Abs(lq-dq) > tol+interpSlack(&d, q) {
				t.Logf("q=%g: sketch %g vs dist %g beyond tolerance", q, lq, dq)
				return false
			}
		}
		for _, x := range []float64{-1, 0, 0.5, 2, 10} {
			if left.FracBelow(x) != right.FracBelow(x) {
				t.Logf("FracBelow(%g): grouping changed the answer", x)
				return false
			}
		}
		if left.Min() != right.Min() || left.Max() != right.Max() {
			t.Logf("extremes differ across groupings")
			return false
		}
		if math.Abs(left.Sum()-right.Sum()) > 1e-6*(1+math.Abs(left.Sum())) {
			t.Logf("sums diverged beyond float reassociation slack")
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// interpSlack bounds the extra error Dist's closest-rank interpolation can
// introduce relative to bucket representatives: the gap between the two
// straddled order statistics.
func interpSlack(d *Dist, q float64) float64 {
	if d.N() < 2 {
		return 0
	}
	pos := q * float64(d.N()-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return 0
	}
	d.sort()
	return math.Abs(d.samples[hi]-d.samples[lo]) * (1 + SketchAlpha)
}

// TestSketchMergeSpillBoundary exercises merges that cross the exact cap.
func TestSketchMergeSpillBoundary(t *testing.T) {
	mk := func(n int, base float64) *Sketch {
		var s Sketch
		for i := 0; i < n; i++ {
			s.Add(base + float64(i))
		}
		return &s
	}
	small := mk(sketchExactCap/2, 1)
	if small.spilled {
		t.Fatal("small sketch spilled early")
	}
	// Exact + exact staying under the cap stays exact.
	var a Sketch
	a.Merge(mk(10, 1))
	a.Merge(mk(10, 100))
	if a.spilled {
		t.Error("20-sample merge spilled")
	}
	// Crossing the cap spills, and the source is untouched.
	var b Sketch
	b.Merge(small)
	b.Merge(mk(sketchExactCap, 1000))
	if !b.spilled {
		t.Error("over-cap merge did not spill")
	}
	if small.spilled {
		t.Error("Merge mutated its argument")
	}
	if b.N() != sketchExactCap/2+sketchExactCap {
		t.Errorf("merged N = %d", b.N())
	}
}

// TestSketchMergeMatchesAdd: a sketch merged from batches holds what one
// sketch that saw every sample holds — the same exact samples below the cap,
// the same buckets, N and extremes above it — at sizes on both sides of the
// cap and with the halves on either path. Only the float Sum is grouped
// differently.
func TestSketchMergeMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, n := range [][2]int{{0, 3}, {40, 60}, {100, 28}, {100, 29}, {3, 500}, {500, 3}, {900, 1100}} {
		var whole, a, b Sketch
		for i := 0; i < n[0]+n[1]; i++ {
			v := math.Round(rng.ExpFloat64()*4000) / 100
			if rng.Intn(50) == 0 {
				v = -v
			}
			whole.Add(v)
			if i < n[0] {
				a.Add(v)
			} else {
				b.Add(v)
			}
		}
		var merged Sketch
		merged.Merge(&a)
		merged.Merge(&b)
		if !reflect.DeepEqual(contents(&merged), contents(&whole)) {
			t.Errorf("%d+%d samples: merged sketch differs from adding them all", n[0], n[1])
		}
	}
}

// sketchContents is what a sketch holds, whatever shape its windows grew to.
type sketchContents struct {
	exact    []float64
	spilled  bool
	pos, neg map[int32]int64
	zero, n  int64
	min, max float64
}

func contents(s *Sketch) sketchContents {
	occupied := func(w cells) map[int32]int64 {
		m := map[int32]int64{}
		for j, c := range w.counts {
			if c != 0 {
				m[w.base+int32(j)] = c
			}
		}
		return m
	}
	return sketchContents{s.exact, s.spilled, occupied(s.pos), occupied(s.neg), s.zero, s.n, s.min, s.max}
}

// TestSketchCellsMatchMapOracle holds the dense bucket windows to the
// sparse form they replaced: a map from bucket index to count, filled with
// the same index. Samples span the whole float range on both signs, so the
// windows grow in both directions and far past the index table.
func TestSketchCellsMatchMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 50; trial++ {
		var s Sketch
		pos, neg := map[int32]int64{}, map[int32]int64{}
		var zero int64
		span := 1 + rng.Float64()*700
		for i := rng.Intn(3000); i > 0; i-- {
			v := math.Exp((rng.Float64() - 0.5) * span)
			switch rng.Intn(8) {
			case 0:
				v = -v
			case 1:
				v = 0
			}
			s.Add(v)
			switch {
			case v > 0:
				pos[sketchIndexLog(v)]++
			case v < 0:
				neg[sketchIndexLog(-v)]++
			default:
				zero++
			}
		}
		got := contents(s.bucketed())
		if !reflect.DeepEqual(got.pos, pos) || !reflect.DeepEqual(got.neg, neg) || got.zero != zero {
			t.Fatalf("trial %d: windows hold %v / %v / %d, oracle %v / %v / %d", trial, got.pos, got.neg, got.zero, pos, neg, zero)
		}
	}
}

// TestSketchJSONRoundTrip: the wire shape reads back to the same bytes, a
// sketch on the exact path writes what its spilled twin writes, and what
// comes back answers bucketed queries like the original.
func TestSketchJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{0, 1, 5, sketchExactCap, 5000} {
		var s Sketch
		for i := 0; i < n; i++ {
			v := rng.NormFloat64() * 1e3
			if i%7 == 0 {
				v = 0
			}
			s.Add(v)
		}
		a, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		var back Sketch
		if err := json.Unmarshal(a, &back); err != nil {
			t.Fatalf("n=%d: own export refused: %v\n%s", n, err, a)
		}
		b, _ := json.Marshal(&back)
		if !bytes.Equal(a, b) {
			t.Errorf("n=%d: round trip not byte-identical:\n%s\n%s", n, a, b)
		}
		if spilled, _ := json.Marshal(s.bucketed()); !bytes.Equal(a, spilled) {
			t.Errorf("n=%d: exact and bucketed forms write different bytes", n)
		}
		want := s.bucketed()
		if back.N() != s.N() || back.Min() != s.Min() || back.Max() != s.Max() || back.Sum() != s.Sum() ||
			back.Quantile(0.3) != want.Quantile(0.3) || back.FracBelow(1) != want.FracBelow(1) {
			t.Errorf("n=%d: the sketch read back answers differently", n)
		}
	}
}

// TestSketchJSONRejects: counts that cannot be a sketch's are an error.
func TestSketchJSONRejects(t *testing.T) {
	for _, bad := range []string{
		`{"count":-1,"sum":0}`,
		`{"count":1,"sum":1,"zero":-1,"buckets":{"5":2}}`,
		`{"count":1,"sum":1,"buckets":{"5":-1,"6":2}}`,
		`{"count":3,"sum":1,"buckets":{"5":1}}`,
		`{"count":1,"sum":1,"buckets":{"5":1},"neg":{"5":1}}`,
		`{"count":1,"sum":1,"zero":2}`,
		`{"count":2,"sum":1,"buckets":{"5":9223372036854775807,"6":9223372036854775807},"neg":{"1":2}}`,
		`{"count":1,"sum":1,"buckets":{"x":1}}`,
		`{"count":1,"sum":1,"buckets":{"99999":1}}`,
		`{"count":1,"sum":1,"min":2,"max":1,"buckets":{"5":1}}`,
		`{"count":1,"buckets":[1]}`,
	} {
		var s Sketch
		if err := json.Unmarshal([]byte(bad), &s); err == nil {
			t.Errorf("Unmarshal(%s) accepted", bad)
		}
	}
}

// benchAdds is the size of a long flight's per-packet distributions.
const benchAdds = 1_000_000

// BenchmarkSketchAdd is one sample into the distribution every run records,
// on its way to a million: the samples are the counts 0 … 999 999 as they
// climb.
func BenchmarkSketchAdd(b *testing.B) {
	b.ReportAllocs()
	var s Sketch
	for i := 0; i < b.N; i++ {
		k := i % benchAdds
		if k == 0 {
			s = Sketch{}
		}
		s.Add(float64(k))
	}
}

// TestSketchAddSteadyStateAllocations: once the windows span the samples'
// range, Add allocates nothing.
func TestSketchAddSteadyStateAllocations(t *testing.T) {
	var s Sketch
	vals := make([]float64, 4096)
	rng := rand.New(rand.NewSource(30))
	for i := range vals {
		vals[i] = math.Exp(rng.Float64()*math.Log(1e4)) - 50
		s.Add(vals[i])
	}
	i := 0
	if allocs := testing.AllocsPerRun(100_000, func() {
		s.Add(vals[i&4095])
		i++
	}); allocs != 0 {
		t.Errorf("Sketch.Add allocates %v per sample in steady state", allocs)
	}
}

// FuzzScanCells holds the in-place bucket reader to encoding/json: any
// valid JSON it accepts, it reads as the same index → count pairs a map
// decode gives, and whatever it declines goes to that decode instead.
func FuzzScanCells(f *testing.F) {
	for _, seed := range []string{
		`{}`, ` { "1" : 2 ,
		"3":4 } `, `{"-5":1,"0":2,"7":3}`, `{"-5":-1}`,
		`{"5":1,"5":2}`, `{"6":1,"5":2}`, `{"05":1}`, `{"-0":1}`, `{"+5":1}`,
		`{"1":1.0}`, `{"1":1e2}`, `{"1":1}`, `{"1":99999999999999999999}`,
		`{"1":123456789012345678}`, `{"1":1234567890123456789}`, `[1]`, `null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if !json.Valid(raw) {
			return
		}
		ok, _ := scanCells(raw, nil)
		if !ok {
			return
		}
		got := map[int64]int64{}
		if _, err := scanCells(raw, func(idx, c int64) error { got[idx] += c; return nil }); err != nil {
			t.Fatal(err)
		}
		var m map[string]int64
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("read %q in place, which encoding/json refuses: %v", raw, err)
		}
		want := map[int64]int64{}
		for k, c := range m {
			idx, err := strconv.ParseInt(k, 10, 64)
			if err != nil {
				t.Fatalf("read key %q in place: %v", k, err)
			}
			want[idx] = c
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: in place %v, encoding/json %v", raw, got, want)
		}
	})
}
