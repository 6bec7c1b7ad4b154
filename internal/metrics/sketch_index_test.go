package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// The oracle of every test here is sketchIndexLog, the Log form the table
// is built from and the only form before the table existed.

// TestSketchIndexMatchesLogForm draws 12 M log-uniform values, half of them
// from the range runs record (inside the table's window) and half from the
// whole float64 range (mostly outside it), subnormals included.
func TestSketchIndexMatchesLogForm(t *testing.T) {
	n := 6_000_000
	if testing.Short() {
		n = 200_000
	}
	rng := rand.New(rand.NewSource(19))
	loIn, hiIn := math.Log(sketchEdges[0])-1, math.Log(sketchEdges[len(sketchEdges)-1])+1
	loAll, hiAll := math.Log(math.SmallestNonzeroFloat64), math.Log(math.MaxFloat64)
	inside := 0
	for i := 0; i < n; i++ {
		for _, v := range [2]float64{
			math.Exp(loIn + rng.Float64()*(hiIn-loIn)),
			math.Exp(loAll + rng.Float64()*(hiAll-loAll)),
		} {
			if v > sketchEdges[0] && v <= sketchEdges[len(sketchEdges)-1] {
				inside++
			}
			if got, want := sketchIndex(v), sketchIndexLog(v); got != want {
				t.Fatalf("sketchIndex(%g) = %d, Log form %d", v, got, want)
			}
		}
	}
	if inside < n*9/10 {
		t.Errorf("only %d of %d values fell inside the table's window", inside, 2*n)
	}
}

// TestSketchIndexAtEveryEdge walks ± 64 ulps around every edge of the
// table, the only places the two forms could disagree, and checks the edges
// are what the table claims: the last value of their bucket.
func TestSketchIndexAtEveryEdge(t *testing.T) {
	if want := sketchTabMax - sketchTabMin + 2; len(sketchEdges) != want {
		t.Fatalf("%d edges, want %d", len(sketchEdges), want)
	}
	for j, edge := range sketchEdges {
		idx := int32(sketchTabMin - 1 + j)
		if got := sketchIndexLog(edge); got != idx {
			t.Fatalf("edge %d (%g) maps to %d by the Log form", idx, edge, got)
		}
		if got := sketchIndexLog(math.Nextafter(edge, math.Inf(1))); got != idx+1 {
			t.Fatalf("the value after edge %d maps to %d by the Log form", idx, got)
		}
		if j > 0 && !(edge > sketchEdges[j-1]) {
			t.Fatalf("edges %d and %d out of order", idx-1, idx)
		}
		down, up := edge, edge
		for k := 0; k <= 64; k++ {
			for _, v := range [2]float64{down, up} {
				if got, want := sketchIndex(v), sketchIndexLog(v); got != want {
					t.Fatalf("edge %d%+d ulps (%g): sketchIndex = %d, Log form %d", idx, k, v, got, want)
				}
			}
			down, up = math.Nextafter(down, 0), math.Nextafter(up, math.Inf(1))
		}
	}
}

// TestSketchIndexOutsideWindow: values the table does not cover, and the
// non-values Sketch.Add filters before asking, get whatever the Log form
// gives.
func TestSketchIndexOutsideWindow(t *testing.T) {
	for _, v := range []float64{
		math.SmallestNonzeroFloat64, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-6,
		sketchEdges[0], math.Nextafter(sketchEdges[0], 0),
		math.Nextafter(sketchEdges[len(sketchEdges)-1], math.Inf(1)), 1e7, 1e300, math.MaxFloat64,
		0, -1, math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		if got, want := sketchIndex(v), sketchIndexLog(v); got != want {
			t.Errorf("sketchIndex(%g) = %d, Log form %d", v, got, want)
		}
	}
	if BucketIndex(10) != sketchIndexLog(10) {
		t.Error("BucketIndex is not sketchIndex")
	}
}

// FuzzBucketIndex: any bit pattern that is a positive finite float64 gets
// the Log form's bucket.
func FuzzBucketIndex(f *testing.F) {
	for _, v := range []float64{1, 0.5, 35.7, 1e-5, 1e6, 1e-300, 1e300, sketchEdges[0], sketchEdges[700], sketchEdges[len(sketchEdges)-1]} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if !(v > 0) || math.IsInf(v, 1) {
			return
		}
		if got, want := BucketIndex(v), sketchIndexLog(v); got != want {
			t.Fatalf("BucketIndex(%g) = %d, Log form %d", v, got, want)
		}
	})
}

var benchIndex int32

// BenchmarkBucketIndex is one histogram sample's bucket: delays between
// 1 ms and 1 s, as a flight's queue-delay telemetry sees them. The "log"
// case is the form the table replaced.
func BenchmarkBucketIndex(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = math.Exp(rng.Float64() * math.Log(1000))
	}
	for _, c := range []struct {
		name string
		fn   func(float64) int32
	}{{"table", BucketIndex}, {"log", sketchIndexLog}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchIndex = c.fn(vals[i&4095])
			}
		})
	}
}
