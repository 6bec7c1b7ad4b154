package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"time"
)

// Server is a running observability HTTP server: pprof and runtime metrics
// under /debug/, the Prometheus exposition at /metrics, the live status
// snapshot at /status, and the status SSE stream at /events. Shut it down
// with Shutdown (drains in-flight scrapes) or Close (immediate).
type Server struct {
	srv  *http.Server
	addr string
	tel  *Telemetry
	// done closes when the serving goroutine returns, so Shutdown can
	// prove the listener is gone instead of abandoning the goroutine.
	done chan struct{}
}

// Serve starts an observability HTTP server on addr. tel feeds the
// /metrics, /status and /events endpoints; nil gets an empty private hub
// so every endpoint still answers. The returned server reports its bound
// address via Addr — useful when addr requests an ephemeral port
// ("127.0.0.1:0").
//
// The handlers are registered on a private mux, not http.DefaultServeMux,
// so importing this package never changes the global handler set.
func Serve(addr string, tel *Telemetry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	if tel == nil {
		tel = NewTelemetry()
	}
	s := &Server{addr: ln.Addr().String(), tel: tel, done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/runtime-metrics", runtimeMetricsHandler)
	mux.HandleFunc("/metrics", s.metricsHandler)
	mux.HandleFunc("/status", s.statusHandler)
	mux.HandleFunc("/events", s.eventsHandler)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Shutdown/Close
	}()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.addr }

// Shutdown gracefully stops the server: the SSE streams are closed (they
// would otherwise hold connections open forever), the listener stops, and
// in-flight scrapes drain until ctx expires. It then waits for the serving
// goroutine to exit, fixing the old Serve/Close lifecycle that abandoned
// it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.tel.CloseStreams()
	err := s.srv.Shutdown(ctx)
	select {
	case <-s.done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

// metricsHandler serves the Prometheus text exposition: the hub's merged
// registry plus progress pseudo-gauges derived from the latest status
// snapshot (so a scraper sees campaign progress without parsing /status).
func (s *Server) metricsHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	reg := s.tel.SnapshotRegistry()
	if st, ok := s.tel.Status(); ok {
		reg.SetGauge("runs_done", float64(st.RunsDone))
		reg.SetGauge("runs_total", float64(st.RunsTotal))
		reg.SetGauge("run_errors", float64(st.RunErrors))
		reg.SetGauge("wall_seconds", st.WallSeconds)
		reg.SetGauge("sim_rate", st.SimRate)
	}
	reg.WritePrometheus(w) //nolint:errcheck // best-effort scrape endpoint
}

// statusHandler serves the latest status snapshot as JSON; 404 until a
// workload publishes one (a scraper can tell "no campaign yet" from
// "campaign at zero").
func (s *Server) statusHandler(w http.ResponseWriter, _ *http.Request) {
	st, ok := s.tel.Status()
	if !ok {
		http.Error(w, "no status published yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st) //nolint:errcheck // best-effort diagnostics endpoint
}

// eventsHandler streams status snapshots as server-sent events: one
// "status" event per published snapshot, starting with the current one.
// The stream ends when the client disconnects or the server shuts down.
func (s *Server) eventsHandler(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	ch, cancel := s.tel.Subscribe()
	defer cancel()
	if st, ok := s.tel.Status(); ok {
		if writeSSE(w, st) != nil {
			return
		}
		fl.Flush()
	}
	for {
		select {
		case st, ok := <-ch:
			if !ok {
				return // hub shut down
			}
			if writeSSE(w, st) != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE frames one snapshot as an SSE "status" event.
func writeSSE(w http.ResponseWriter, st StatusSnapshot) error {
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: status\ndata: %s\n\n", data)
	return err
}

// runtimeMetricsHandler writes a JSON snapshot of every runtime/metrics
// sample the Go runtime publishes (scheduler latencies, GC pause
// histograms, heap sizes), keyed by metric name.
func runtimeMetricsHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(SnapshotRuntimeMetrics()) //nolint:errcheck // best-effort diagnostics endpoint
}

// RuntimeHistogram is the JSON shape of a runtime Float64Histogram sample.
type RuntimeHistogram struct {
	Buckets []float64 `json:"buckets"`
	Counts  []uint64  `json:"counts"`
}

// SnapshotRuntimeMetrics reads every supported runtime/metrics sample and
// returns it in a JSON-marshalable map: uint64/float64 values directly,
// histograms as bucket/count pairs. Runtime histogram bucket edges use
// ±Inf as open boundaries, which encoding/json rejects, so non-finite
// floats are clamped to ±MaxFloat64 before export.
func SnapshotRuntimeMetrics() map[string]any {
	descs := metrics.All()
	samples := make([]metrics.Sample, len(descs))
	for i, d := range descs {
		samples[i].Name = d.Name
	}
	metrics.Read(samples)
	out := make(map[string]any, len(samples))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[s.Name] = s.Value.Uint64()
		case metrics.KindFloat64:
			out[s.Name] = jsonSafeFloat(s.Value.Float64())
		case metrics.KindFloat64Histogram:
			h := s.Value.Float64Histogram()
			buckets := make([]float64, len(h.Buckets))
			for i, b := range h.Buckets {
				buckets[i] = jsonSafeFloat(b)
			}
			out[s.Name] = RuntimeHistogram{Buckets: buckets, Counts: h.Counts}
		}
	}
	return out
}

// jsonSafeFloat maps values encoding/json cannot marshal (±Inf, NaN) onto
// representable sentinels: infinities clamp to ±MaxFloat64, NaN to zero.
func jsonSafeFloat(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	case math.IsNaN(v):
		return 0
	default:
		return v
	}
}
