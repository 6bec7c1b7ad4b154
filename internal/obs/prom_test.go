package obs

import (
	"bytes"
	"strings"
	"testing"
)

func promTestRegistry() *Registry {
	r := NewRegistry()
	r.Add("packets_sent", 120)
	r.Add("packets_delivered", 118)
	r.SetGauge("peak_queue_ms", 41.5)
	h := r.LogHistogram("owl_ms")
	for _, v := range []float64{3, 18, 18, 90, 20000} {
		h.Add(v)
	}
	lh := r.LogHistogram("frame_delay_ms")
	for _, v := range []float64{0, 12, 12.04, 55, 700} {
		lh.Add(v)
	}
	return r
}

// TestWritePrometheusDeterministic: two snapshots of equal registries render
// byte-identically — kinds grouped, names sorted, le ascending. This is the
// scrape-stability guarantee: a diff between consecutive scrapes is a metric
// change, never map-iteration noise.
func TestWritePrometheusDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := promTestRegistry().WritePrometheus(&a); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if err := promTestRegistry().Clone().WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus(clone): %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("two snapshots differ:\n--- a ---\n%s--- b ---\n%s", a.String(), b.String())
	}
	if err := checkPromExposition(a.String()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, a.String())
	}
}

// TestWritePrometheusMapping: each registry kind lands under the documented
// name mapping with the namespace prefix.
func TestWritePrometheusMapping(t *testing.T) {
	var buf bytes.Buffer
	if err := promTestRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE rpivideo_packets_sent_total counter",
		"rpivideo_packets_sent_total 120",
		"# TYPE rpivideo_peak_queue_ms gauge",
		"rpivideo_peak_queue_ms 41.5",
		"# TYPE rpivideo_owl_ms histogram",
		`rpivideo_owl_ms_bucket{le="18.175902393839202"} 3`,
		`rpivideo_owl_ms_bucket{le="+Inf"} 5`,
		"rpivideo_owl_ms_sum 20129",
		"rpivideo_owl_ms_count 5",
		`rpivideo_frame_delay_ms_bucket{le="0"} 1`,
		"# TYPE rpivideo_frame_delay_ms histogram",
		`rpivideo_frame_delay_ms_bucket{le="+Inf"} 5`,
		"rpivideo_frame_delay_ms_count 5",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The zero cell is the first bucket: no bucket line leaves out the
	// v=0 observation.
	lines := strings.Split(text, "\n")
	for _, line := range lines {
		if strings.HasPrefix(line, "rpivideo_frame_delay_ms_bucket") {
			if strings.HasSuffix(line, " 0") {
				t.Errorf("first frame_delay bucket excludes the zero cell: %q", line)
			}
			break
		}
	}
}

// TestWritePrometheusOrdering: counters precede gauges precede histograms,
// and names sort within each kind.
func TestWritePrometheusOrdering(t *testing.T) {
	var buf bytes.Buffer
	if err := promTestRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var families []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families = append(families, strings.Fields(line)[2])
		}
	}
	want := []string{
		"rpivideo_packets_delivered_total",
		"rpivideo_packets_sent_total",
		"rpivideo_peak_queue_ms",
		"rpivideo_frame_delay_ms",
		"rpivideo_owl_ms",
	}
	if len(families) != len(want) {
		t.Fatalf("family order %v, want %v", families, want)
	}
	for i := range want {
		if families[i] != want[i] {
			t.Fatalf("family order %v, want %v", families, want)
		}
	}
}

func TestSanitizeMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"clean_name_42": "clean_name_42",
		"dots.and-dash": "dots_and_dash",
		"sp ace":        "sp_ace",
	} {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}
