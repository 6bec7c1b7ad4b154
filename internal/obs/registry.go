package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Fixed histogram bucket layouts. Every histogram of a given name must use
// the same layout in every run, so per-run registries merge bucket-by-
// bucket and campaign output is byte-stable at any worker count. Bucket
// edges are upper bounds (v ≤ edge); observations beyond the last edge
// land in the overflow bucket.
var (
	// LatencyMsBuckets covers one-way delay, playback latency, jitter,
	// RTT, HET and outage/recovery times in milliseconds.
	LatencyMsBuckets = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}
	// RateMbpsBuckets covers goodput and target-rate samples in Mbps.
	RateMbpsBuckets = []float64{0.5, 1, 2, 4, 6, 8, 10, 12, 16, 20, 25, 30}
	// SSIMBuckets covers per-frame quality scores.
	SSIMBuckets = []float64{0, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.98, 1}
	// FPSBuckets covers frames-played-per-second samples.
	FPSBuckets = []float64{0, 5, 10, 15, 20, 24, 28, 30, 35}
	// ShareBuckets covers per-UE scheduled capacity shares in (0, 1]: the
	// fleet scheduler's grant distribution. The last edge is exactly 1 so
	// the overflow bucket stays empty unless conservation breaks.
	ShareBuckets = []float64{0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
)

// Histogram is a fixed-bucket histogram: Counts[i] tallies observations
// v ≤ Buckets[i] (and greater than the previous edge); Overflow tallies
// the rest. Count is the total number of observations and Sum their sum.
type Histogram struct {
	Buckets  []float64 `json:"buckets"`
	Counts   []int64   `json:"counts"`
	Overflow int64     `json:"overflow"`
	Count    int64     `json:"count"`
	Sum      float64   `json:"sum"`
}

// Observe records one sample. NaN counts into the overflow bucket, and
// only finite observations contribute to Sum — so bucket counts always
// sum to Count and one pathological sample cannot poison the aggregate.
func (h *Histogram) Observe(v float64) {
	h.Count++
	if math.IsNaN(v) {
		h.Overflow++
		return
	}
	if !math.IsInf(v, 0) {
		h.Sum += v
	}
	for i, edge := range h.Buckets {
		if v <= edge {
			h.Counts[i]++
			return
		}
	}
	h.Overflow++
}

// Merge folds o into h bucket-by-bucket. The layouts must match (it
// panics otherwise, like Registry.Merge).
func (h *Histogram) Merge(o *Histogram) { h.merge("histogram", o) }

// sameLayout says how o's bucket layout differs from h's, or nil.
func (h *Histogram) sameLayout(o *Histogram) error {
	if len(h.Buckets) != len(o.Buckets) {
		return fmt.Errorf("bucket layout mismatch (%d vs %d edges)", len(h.Buckets), len(o.Buckets))
	}
	for i, edge := range h.Buckets {
		if edge != o.Buckets[i] {
			return fmt.Errorf("bucket %d mismatch (%g vs %g)", i, edge, o.Buckets[i])
		}
	}
	return nil
}

// merge folds o into h. The layouts must match.
func (h *Histogram) merge(name string, o *Histogram) {
	if err := h.sameLayout(o); err != nil {
		panic(fmt.Sprintf("obs: histogram %q: %v", name, err))
	}
	h.add(o)
}

// add folds o, whose layout the caller has checked, into h.
func (h *Histogram) add(o *Histogram) {
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Overflow += o.Overflow
	h.Count += o.Count
	h.Sum += o.Sum
}

// Registry is a named collection of counters, gauges and histograms — the
// campaign-level metrics surface. It is not safe for concurrent use; the
// campaign engine builds one registry per run and merges them in run-index
// order.
type Registry struct {
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*Histogram
	logs     map[string]*LogHistogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*Histogram),
		logs:     make(map[string]*LogHistogram),
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

// Histogram returns (creating if needed) the named histogram with the
// given bucket layout. It panics if the name already exists with a
// different layout.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	if h, ok := r.hists[name]; ok {
		if len(h.Buckets) != len(buckets) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with a different layout", name))
		}
		return h
	}
	h := &Histogram{Buckets: buckets, Counts: make([]int64, len(buckets))}
	r.hists[name] = h
	return h
}

// LogHistogram returns (creating if needed) the named log-bucketed
// histogram. All log histograms share the package layout (see loghist.go),
// so no bucket negotiation is needed.
func (r *Registry) LogHistogram(name string) *LogHistogram {
	if h, ok := r.logs[name]; ok {
		return h
	}
	h := NewLogHistogram()
	r.logs[name] = h
	return h
}

// Merge folds o into r: counters sum, gauges take the maximum, histograms
// sum bucket-by-bucket. It panics on a histogram bucket-layout mismatch.
// Integer fields merge associatively; histogram Sum is a float, so
// byte-identical exports require a fixed merge order — the campaign
// engine always merges per-run registries flat, in run-index order, which
// is independent of the worker count.
func (r *Registry) Merge(o *Registry) {
	if err := r.MergeChecked(o); err != nil {
		panic("obs: " + err.Error())
	}
}

// MergeChecked is Merge for a registry that came from outside the process
// (ReadRegistryJSON): a histogram whose layout differs from r's is an error
// naming it, returned before anything is folded.
func (r *Registry) MergeChecked(o *Registry) error {
	// Sorted, so a mismatch names the same histogram every time.
	names := make([]string, 0, len(o.hists))
	for name := range o.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if h, ok := r.hists[name]; ok {
			if err := h.sameLayout(o.hists[name]); err != nil {
				return fmt.Errorf("histogram %q: %w", name, err)
			}
		}
	}
	for name, v := range o.counters {
		r.counters[name] += v
	}
	for name, v := range o.gauges {
		r.SetGauge(name, v)
	}
	for _, name := range names {
		oh := o.hists[name]
		r.Histogram(name, oh.Buckets).add(oh)
	}
	for name, oh := range o.logs {
		r.LogHistogram(name).Merge(oh)
	}
	return nil
}

// Clone returns a deep copy of the registry — the snapshot the telemetry
// hub hands to scrape handlers so exports never race live recording.
func (r *Registry) Clone() *Registry {
	out := NewRegistry()
	out.Merge(r)
	return out
}

// registryJSON is the export shape. encoding/json writes map keys in
// sorted order and formats floats deterministically, so the output is
// byte-stable.
type registryJSON struct {
	Counters   map[string]int64      `json:"counters"`
	Gauges     map[string]float64    `json:"gauges"`
	Histograms map[string]*Histogram `json:"histograms"`
	// LogHistograms is omitted when empty so registries predating the
	// live-telemetry layer (every checked-in baseline) keep their exact
	// bytes.
	LogHistograms map[string]*LogHistogram `json:"loghistograms,omitempty"`
}

// WriteJSON renders the registry as indented JSON with sorted keys.
func (r *Registry) WriteJSON(w io.Writer) error {
	logs := r.logs
	if len(logs) == 0 {
		logs = nil // omitempty needs nil-or-empty; be explicit for old maps
	}
	out, err := json.MarshalIndent(registryJSON{
		Counters:      r.counters,
		Gauges:        r.gauges,
		Histograms:    r.hists,
		LogHistograms: logs,
	}, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}
