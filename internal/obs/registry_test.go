package obs

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	r.Add("packets_sent", 10)
	r.Add("packets_sent", 5)
	if r.Counter("packets_sent") != 15 {
		t.Fatalf("counter = %d, want 15", r.Counter("packets_sent"))
	}
	r.SetGauge("queue_ms", 10)
	r.SetGauge("queue_ms", 4) // gauges keep the watermark
	r.SetGauge("queue_ms", 25)
	if r.Gauge("queue_ms") != 25 {
		t.Fatalf("gauge = %g, want 25", r.Gauge("queue_ms"))
	}
	h := r.LogHistogram("owd_ms")
	h.Add(3)
	h.Add(30)
	h.Add(1e9)
	if h.N() != 3 || h.Max() != 1e9 {
		t.Fatalf("count=%d max=%g, want 3/1e9", h.N(), h.Max())
	}
	if again := r.LogHistogram("owd_ms"); again != h {
		t.Fatal("asking for the same name must return the same histogram")
	}
}

// TestHistogramCountInvariant is the property test: for arbitrary
// observation streams (including infinities and NaN) on either side of the
// exact cap, the exported bucket counts sum to the histogram's count, which
// counts exactly the finite observations.
func TestHistogramCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		h := NewRegistry().LogHistogram("h")
		n, finite := rng.Intn(500), 0
		for i := 0; i < n; i++ {
			var v float64
			switch rng.Intn(10) {
			case 0:
				v = math.Inf(1)
			case 1:
				v = math.Inf(-1)
			case 2:
				v = math.NaN()
			default:
				v = (rng.Float64() - 0.2) * 3000
				finite++
			}
			h.Add(v)
		}
		var sum int64
		h.EachBucket(func(_ float64, c int64) { sum += c })
		if sum != int64(h.N()) || h.N() != finite {
			t.Fatalf("trial %d: bucket sum %d, count %d, finite observations %d", trial, sum, h.N(), finite)
		}
		if math.IsNaN(h.Sum()) || math.IsInf(h.Sum(), 0) {
			t.Fatalf("trial %d: a non-finite observation poisoned Sum", trial)
		}
	}
}

// TestMergePartitionInvariant is the second property: campaign metrics are
// independent of the worker count. The engine always folds per-run
// registries flat, in run-index order — workers only change which
// goroutine *computes* each run, never the merge order — so two flat
// merges of the same per-run registries are byte-identical. Chunked
// (group-then-merge) folds are additionally exact for every integer field
// and for gauges; only the float histogram Sum is order-sensitive, which
// is why the engine pins the flat order.
func TestMergePartitionInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		runs := 1 + rng.Intn(12)
		perRun := make([]*Registry, runs)
		var wantSent int64
		for i := range perRun {
			r := NewRegistry()
			sent := int64(rng.Intn(1000))
			r.Add("packets_sent", sent)
			wantSent += sent
			r.SetGauge("queue_ms", rng.Float64()*100)
			h := r.LogHistogram("owd_ms")
			for j := rng.Intn(200); j > 0; j-- {
				h.Add(rng.Float64() * 4000)
			}
			perRun[i] = r
		}

		// Two independent flat merges in run-index order — what the engine
		// does at every worker count — must export identical bytes.
		flat := NewRegistry()
		flat2 := NewRegistry()
		for _, r := range perRun {
			flat.Merge(r)
		}
		for _, r := range perRun {
			flat2.Merge(r)
		}
		var a, b bytes.Buffer
		if err := flat.WriteJSON(&a); err != nil {
			t.Fatal(err)
		}
		if err := flat2.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("trial %d: two flat run-index-order merges export different bytes:\n%s\nvs\n%s", trial, a.String(), b.String())
		}

		// Chunked merge: contiguous groups merged first, then folded.
		chunked := NewRegistry()
		for lo := 0; lo < runs; {
			hi := lo + 1 + rng.Intn(runs-lo)
			group := NewRegistry()
			for _, r := range perRun[lo:hi] {
				group.Merge(r)
			}
			chunked.Merge(group)
			lo = hi
		}

		if flat.Counter("packets_sent") != wantSent || chunked.Counter("packets_sent") != wantSent {
			t.Fatalf("trial %d: counter sums diverge: flat %d chunked %d want %d",
				trial, flat.Counter("packets_sent"), chunked.Counter("packets_sent"), wantSent)
		}
		if flat.Gauge("queue_ms") != chunked.Gauge("queue_ms") {
			t.Fatalf("trial %d: gauge max diverges: flat %g chunked %g",
				trial, flat.Gauge("queue_ms"), chunked.Gauge("queue_ms"))
		}
		fh := flat.LogHistogram("owd_ms")
		ch := chunked.LogHistogram("owd_ms")
		if fh.N() != ch.N() || fh.Min() != ch.Min() || fh.Max() != ch.Max() {
			t.Fatalf("trial %d: histogram totals diverge: flat %d [%g,%g] chunked %d [%g,%g]",
				trial, fh.N(), fh.Min(), fh.Max(), ch.N(), ch.Min(), ch.Max())
		}
		if fb, cb := bucketList(fh), bucketList(ch); !reflect.DeepEqual(fb, cb) {
			t.Fatalf("trial %d: buckets diverge: flat %v chunked %v", trial, fb, cb)
		}
		// Float Sum is associative only up to rounding; it must still agree
		// to within a sliver of the magnitude involved.
		if diff := math.Abs(fh.Sum() - ch.Sum()); diff > 1e-6*math.Max(1, math.Abs(fh.Sum())) {
			t.Fatalf("trial %d: histogram Sum diverges beyond rounding: flat %g chunked %g", trial, fh.Sum(), ch.Sum())
		}
	}
}

// bucketList is a histogram's occupied buckets as (upper edge, count) pairs.
func bucketList(h *LogHistogram) [][2]float64 {
	var out [][2]float64
	h.EachBucket(func(upper float64, c int64) { out = append(out, [2]float64{upper, float64(c)}) })
	return out
}

func TestWriteJSONStable(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Add("b_counter", 2)
		r.Add("a_counter", 1)
		r.SetGauge("g", 1.25)
		r.LogHistogram("owd_ms").Add(3.5)
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("two identical registries export different bytes:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !bytes.Contains(a.Bytes(), []byte(`"a_counter": 1`)) {
		t.Errorf("export missing counter: %s", a.String())
	}
}
