package obs

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
)

func testRegistry() *Registry {
	r := NewRegistry()
	r.Add("packets_sent", 1000)
	r.Add("packets_lost", 10)
	r.SetGauge("post_outage_queue_ms", 250)
	h := r.LogHistogram("owd_ms")
	for _, v := range []float64{5, 12, 48, 130, 130, 700} {
		h.Add(v)
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
	bad := `{"counters":{},"gauges":{},"histograms":{"h":{"count":3,"sum":1,"buckets":{"5":-1,"6":4}}}}`
	if _, err := ReadRegistryJSON(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "negative count") {
		t.Errorf("negative bucket count not rejected: %v", err)
	}
}

// FuzzReadRegistryJSON: a registry file is outside input (-compare baselines,
// dist shards). Whatever is accepted exports, reads back to the same bytes
// and merges into a registry that still exports, or is refused, without a
// panic.
func FuzzReadRegistryJSON(f *testing.F) {
	var seed bytes.Buffer
	if err := testRegistry().WriteJSON(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"histograms":{"owd_ms":{"count":1,"sum":1,"min":1,"max":1,"buckets":{"0":1}},"x":null}}`))
	f.Add([]byte(`{"gauges":{"g":-1e308},"histograms":{"y":{"count":2,"sum":1,"zero":1,"buckets":{"-500":1,"700":-1}},"z":null}}`))
	f.Add([]byte(`{"histograms":{"y":{"count":1,"buckets":{"35000":1},"neg":{"-37000":1}}}}`))
	f.Add([]byte(`{"histograms":{"y":{"count":2,"sum":-3,"min":-4,"max":1,"neg":{"70":1},"buckets":{"-2":1}}}}`))
	f.Add([]byte(`{"histograms":{"y":{"count":1,"sum":1,"buckets":{"5":9223372036854775807,"6":9223372036854775807}}}}`))
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
		into.Merge(reg)
		if err := into.WriteJSON(io.Discard); err != nil {
			t.Fatalf("merged, but does not export: %v", err)
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
	// A NaN tolerance or a NaN value fails the gate, never passes it.
	if got := CompareRegistries(base, cur, Tolerance{Default: math.NaN()}); len(got) == 0 {
		t.Error("2% drift passed a NaN tolerance")
	}
	nan, nanCur := NewRegistry(), NewRegistry()
	nan.SetGauge("g", 1)
	nanCur.SetGauge("g", math.NaN())
	if got := CompareRegistries(nan, nanCur, Tolerance{Default: 0.05}); len(got) != 1 {
		t.Errorf("NaN gauge passed the gate: %v", got)
	}

	// Histogram drift: one more sample moves the count and the sum.
	cur2 := testRegistry()
	cur2.LogHistogram("owd_ms").Add(130)
	drifts = CompareRegistries(base, cur2, Tolerance{Default: 0.01})
	if len(drifts) != 2 || drifts[0].Metric != "histogram/owd_ms/count" || drifts[1].Metric != "histogram/owd_ms/sum" {
		t.Fatalf("histogram drift: %v", drifts)
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
