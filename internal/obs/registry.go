package obs

import (
	"encoding/json"
	"io"

	"rpivideo/internal/metrics"
)

// LogHistogram is the registry's one histogram kind: a metrics.Sketch, the
// log-bucketed distribution every run records. bench/ knows it by this name.
type LogHistogram = metrics.Sketch

// Registry is a named collection of counters, gauges and histograms — the
// campaign-level metrics surface. It is not safe for concurrent use. A
// campaign's registry is the run-index-order merge of its runs' registries,
// which is how a sharded campaign folds its shards.
type Registry struct {
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*metrics.Sketch
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*metrics.Sketch),
	}
}

// Add increments a counter.
func (r *Registry) Add(name string, delta int64) { r.counters[name] += delta }

// Counter returns a counter's current value.
func (r *Registry) Counter(name string) int64 { return r.counters[name] }

// SetGauge records a gauge value. Gauges merge by maximum — they record
// worst-case watermarks (peak queue delay, slowest ramp-up), for which the
// campaign-level answer is the worst run's.
func (r *Registry) SetGauge(name string, v float64) {
	if cur, ok := r.gauges[name]; !ok || v > cur {
		r.gauges[name] = v
	}
}

// Gauge returns a gauge's current value.
func (r *Registry) Gauge(name string) float64 { return r.gauges[name] }

// LogHistogram returns (creating if needed) the named histogram. Every
// histogram shares the metrics.Sketch bucket layout, so there is nothing to
// negotiate when registries merge.
func (r *Registry) LogHistogram(name string) *metrics.Sketch {
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &metrics.Sketch{}
	r.hists[name] = h
	return h
}

// Merge folds o into r: counters sum, gauges take the maximum, histograms
// merge bucket by bucket. Integer fields merge associatively; a histogram's
// Sum is a float, so byte-identical exports require a fixed merge order —
// per-run registries merge flat, in run-index order, which is independent
// of the worker count.
func (r *Registry) Merge(o *Registry) {
	for name, v := range o.counters {
		r.counters[name] += v
	}
	for name, v := range o.gauges {
		r.SetGauge(name, v)
	}
	for name, h := range o.hists {
		r.LogHistogram(name).Merge(h)
	}
}

// Clone returns a deep copy of the registry — the snapshot the telemetry
// hub hands to scrape handlers so exports never race live recording.
func (r *Registry) Clone() *Registry {
	out := NewRegistry()
	out.Merge(r)
	return out
}

// registryJSON is the export shape. encoding/json writes map keys in
// sorted order and a Sketch writes its buckets in index order, so the output
// is byte-stable.
type registryJSON struct {
	Counters   map[string]int64           `json:"counters"`
	Gauges     map[string]float64         `json:"gauges"`
	Histograms map[string]*metrics.Sketch `json:"histograms"`
}

// WriteJSON renders the registry as indented JSON with sorted keys.
func (r *Registry) WriteJSON(w io.Writer) error {
	out, err := json.MarshalIndent(registryJSON{
		Counters:   r.counters,
		Gauges:     r.gauges,
		Histograms: r.hists,
	}, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}
