package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
)

// PromNamespace prefixes every metric the Prometheus writer emits, so a
// shared scrape target can never collide with another exporter's names.
const PromNamespace = "rpivideo"

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), hand-rolled so the repo takes no client_golang
// dependency. The output is deterministic: families are grouped by kind
// (counters, then gauges, then histograms), sorted by name within each
// kind, and the only label (`le`) ascends — two snapshots of equal
// registries are byte-identical.
//
// Mapping:
//   - counter <name>  → rpivideo_<name>_total
//   - gauge <name>    → rpivideo_<name>
//   - histogram       → rpivideo_<name>_bucket{le="…"} cumulative series,
//     one per occupied log bucket at its upper edge (the zero cell at
//     le="0"), then le="+Inf", plus rpivideo_<name>_sum and
//     rpivideo_<name>_count
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)

	for _, name := range sortedKeys(r.counters) {
		fq := PromNamespace + "_" + sanitizeMetricName(name) + "_total"
		writeHeader(bw, fq, "counter")
		writeSample(bw, fq, "", float64(r.counters[name]))
	}
	for _, name := range sortedKeys(r.gauges) {
		fq := PromNamespace + "_" + sanitizeMetricName(name)
		writeHeader(bw, fq, "gauge")
		writeSample(bw, fq, "", r.gauges[name])
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		fq := PromNamespace + "_" + sanitizeMetricName(name)
		writeHeader(bw, fq, "histogram")
		var cum int64
		h.EachBucket(func(upper float64, count int64) {
			cum += count
			writeSample(bw, fq+"_bucket", `le="`+formatFloat(upper)+`"`, float64(cum))
		})
		writeSample(bw, fq+"_bucket", `le="+Inf"`, float64(h.N()))
		writeSample(bw, fq+"_sum", "", h.Sum())
		writeSample(bw, fq+"_count", "", float64(h.N()))
	}
	return bw.Flush()
}

// writeHeader emits the HELP/TYPE preamble for one family. HELP text is
// the metric's registry name — the registry carries no free-text help, and
// an empty HELP line trips some linters.
func writeHeader(w *bufio.Writer, fq, typ string) {
	w.WriteString("# HELP " + fq + " " + fq + "\n")
	w.WriteString("# TYPE " + fq + " " + typ + "\n")
}

// writeSample emits one sample line, with an optional single label pair.
func writeSample(w *bufio.Writer, fq, label string, v float64) {
	w.WriteString(fq)
	if label != "" {
		w.WriteString("{" + label + "}")
	}
	w.WriteString(" " + formatFloat(v) + "\n")
}

// formatFloat renders a float in its shortest round-tripping form — the
// same convention encoding/json uses, so numbers match the JSON exports.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sanitizeMetricName maps a registry name onto the Prometheus metric-name
// alphabet [a-zA-Z0-9_]. Registry names are already clean snake_case; this
// guards the format against future names rather than rewriting them.
func sanitizeMetricName(name string) string {
	clean := true
	for i := 0; i < len(name); i++ {
		if !isMetricChar(name[i]) {
			clean = false
			break
		}
	}
	if clean {
		return name
	}
	out := []byte(name)
	for i, c := range out {
		if !isMetricChar(c) {
			out[i] = '_'
		}
	}
	return string(out)
}

func isMetricChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
