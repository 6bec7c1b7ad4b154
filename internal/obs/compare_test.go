package obs

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func testRegistry() *Registry {
	r := NewRegistry()
	r.Add("packets_sent", 1000)
	r.Add("packets_lost", 10)
	r.SetGauge("post_outage_queue_ms", 250)
	h := r.Histogram("owd_ms", LatencyMsBuckets)
	for _, v := range []float64{5, 12, 48, 130, 130, 700} {
		h.Observe(v)
	}
	return r
}

// TestRegistryJSONRoundTrip: WriteJSON → ReadRegistryJSON → WriteJSON must
// be byte-identical, so the checked-in baseline is a faithful registry.
func TestRegistryJSONRoundTrip(t *testing.T) {
	r := testRegistry()
	var a bytes.Buffer
	if err := r.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRegistryJSON(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := back.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("round trip not byte-identical:\n--- first ---\n%s--- second ---\n%s", a.String(), b.String())
	}
}

func TestReadRegistryJSONErrors(t *testing.T) {
	if _, err := ReadRegistryJSON(strings.NewReader("{broken")); err == nil {
		t.Error("malformed JSON accepted")
	}
	bad := `{"counters":{},"gauges":{},"histograms":{"h":{"buckets":[1,2],"counts":[1],"overflow":0,"count":1,"sum":1}}}`
	if _, err := ReadRegistryJSON(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "counts") {
		t.Errorf("count/bucket mismatch not rejected: %v", err)
	}
}

// TestMergeCheckedLayoutMismatch: two registries read from outside that hold
// one histogram at different layouts. Merge panics, as it does for in-process
// callers; MergeChecked names the histogram and folds nothing.
func TestMergeCheckedLayoutMismatch(t *testing.T) {
	read := func(doc string) *Registry {
		t.Helper()
		r, err := ReadRegistryJSON(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	const two = `{"counters":{"n":3},"histograms":{"owd_ms":{"buckets":[1,2],"counts":[1,2],"overflow":0,"count":3,"sum":4}}}`
	const one = `{"counters":{"n":1},"histograms":{"owd_ms":{"buckets":[1],"counts":[1],"overflow":0,"count":1,"sum":1}}}`
	const moved = `{"counters":{"n":1},"histograms":{"owd_ms":{"buckets":[1,3],"counts":[1,0],"overflow":0,"count":1,"sum":1}}}`

	for doc, want := range map[string]string{
		one:   `histogram "owd_ms": bucket layout mismatch (2 vs 1 edges)`,
		moved: `histogram "owd_ms": bucket 1 mismatch (2 vs 3)`,
	} {
		r := read(two)
		if err := r.MergeChecked(read(doc)); err == nil || err.Error() != want {
			t.Errorf("MergeChecked = %v, want %q", err, want)
		}
		if r.Counter("n") != 3 || r.hists["owd_ms"].Count != 3 {
			t.Errorf("a rejected registry was partly folded: n=%d count=%d", r.Counter("n"), r.hists["owd_ms"].Count)
		}
	}
	r := read(two)
	if err := r.MergeChecked(read(two)); err != nil || r.Counter("n") != 6 || r.hists["owd_ms"].Counts[1] != 4 {
		t.Errorf("matching layouts: err %v, n=%d", err, r.Counter("n"))
	}
	defer func() {
		if recover() == nil {
			t.Error("Merge of mismatched layouts did not panic")
		}
	}()
	r.Merge(read(one))
}

// FuzzReadRegistryJSON: a registry file is outside input (-compare baselines,
// dist shards). Whatever is accepted exports, reads back to the same bytes
// and merges, or is refused, without a panic.
func FuzzReadRegistryJSON(f *testing.F) {
	var seed bytes.Buffer
	if err := testRegistry().WriteJSON(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"histograms":{"owd_ms":{"buckets":[1],"counts":[1],"count":1,"sum":1},"x":null}}`))
	f.Add([]byte(`{"gauges":{"g":-1e308},"loghistograms":{"y":{"count":2,"sum":1,"zero":1,"buckets":{"-500":1,"700":-1}},"z":null}}`))
	f.Add([]byte(`{"loghistograms":{"y":{"buckets":{"701":1}}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		reg, err := ReadRegistryJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var a, b bytes.Buffer
		if err := reg.WriteJSON(&a); err != nil {
			t.Fatalf("accepted, but does not export: %v", err)
		}
		back, err := ReadRegistryJSON(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("own export refused: %v", err)
		}
		if err := back.WriteJSON(&b); err != nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("export not stable (%v):\n%s\n%s", err, a.Bytes(), b.Bytes())
		}
		into := testRegistry()
		if err := into.MergeChecked(reg); err == nil {
			if err := into.WriteJSON(io.Discard); err != nil {
				t.Fatalf("merged, but does not export: %v", err)
			}
		}
	})
}

// TestCompareRegistriesGate covers the regression gate's verdicts: identical
// registries pass, drift beyond tolerance is reported with the offending
// metric, drift within tolerance passes, and missing metrics always fail.
func TestCompareRegistriesGate(t *testing.T) {
	base := testRegistry()

	if drifts := CompareRegistries(base, testRegistry(), Tolerance{}); len(drifts) != 0 {
		t.Fatalf("identical registries drifted: %v", drifts)
	}

	// Perturb a counter by 2%: caught at default 1%, passed at 5%.
	cur := testRegistry()
	cur.Add("packets_sent", 20)
	drifts := CompareRegistries(base, cur, Tolerance{Default: 0.01})
	if len(drifts) != 1 || drifts[0].Metric != "counter/packets_sent" {
		t.Fatalf("2%% counter drift at 1%% tolerance: %v", drifts)
	}
	if got := CompareRegistries(base, cur, Tolerance{Default: 0.05}); len(got) != 0 {
		t.Errorf("2%% drift failed a 5%% tolerance: %v", got)
	}
	if got := CompareRegistries(base, cur, Tolerance{Default: 0.01,
		PerMetric: map[string]float64{"counter/packets_sent": 0.05}}); len(got) != 0 {
		t.Errorf("per-metric override not honored: %v", got)
	}

	// Histogram sum drift.
	cur2 := testRegistry()
	cur2.Histogram("owd_ms", LatencyMsBuckets).Sum *= 1.1
	drifts = CompareRegistries(base, cur2, Tolerance{Default: 0.01})
	if len(drifts) != 1 || drifts[0].Metric != "histogram/owd_ms/sum" {
		t.Fatalf("histogram sum drift: %v", drifts)
	}

	// A metric missing on either side fails regardless of tolerance.
	cur3 := testRegistry()
	cur3.Add("new_counter", 1)
	drifts = CompareRegistries(base, cur3, Tolerance{Default: 100})
	if len(drifts) != 1 || drifts[0].Metric != "counter/new_counter" || drifts[0].Missing != "base" {
		t.Fatalf("appeared metric: %v", drifts)
	}
	drifts = CompareRegistries(cur3, base, Tolerance{Default: 100})
	if len(drifts) != 1 || drifts[0].Missing != "cur" {
		t.Fatalf("disappeared metric: %v", drifts)
	}

	// Near-zero baselines use the max(|base|,1) floor: 0 → 1 is 100% of the
	// floor, not infinite.
	a, b := NewRegistry(), NewRegistry()
	a.Add("rare", 0)
	b.Add("rare", 1)
	drifts = CompareRegistries(a, b, Tolerance{Default: 0.5})
	if len(drifts) != 1 || drifts[0].Rel != 1 {
		t.Fatalf("zero-baseline drift: %v", drifts)
	}
}
