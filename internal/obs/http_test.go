package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestServePprofAndRuntimeMetrics(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	for _, path := range []string{"/debug/pprof/", "/debug/runtime-metrics"} {
		resp, err := client.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Errorf("GET %s: empty body", path)
		}
		if path == "/debug/runtime-metrics" {
			var m map[string]any
			if err := json.Unmarshal(body, &m); err != nil {
				t.Errorf("runtime-metrics is not JSON: %v", err)
			} else if len(m) == 0 {
				t.Error("runtime-metrics snapshot is empty")
			}
		}
	}
}

// TestServeBadAddress: an unparseable or unbindable address comes back as
// an error naming the address, with no server left behind.
func TestServeBadAddress(t *testing.T) {
	for _, addr := range []string{"not-an-address", "256.0.0.1:99999"} {
		srv, err := Serve(addr, nil)
		if err == nil {
			t.Errorf("Serve(%q) succeeded with addr %q, want error", addr, srv.Addr())
			srv.Close()
			continue
		}
		if !strings.Contains(err.Error(), addr) {
			t.Errorf("Serve(%q) error does not name the address: %v", addr, err)
		}
		if srv != nil {
			t.Errorf("Serve(%q) returned a server alongside the error", addr)
		}
	}
}

// TestServeAddressInUse: binding the same concrete port twice fails on the
// second call while the first server keeps serving.
func TestServeAddressInUse(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("first Serve: %v", err)
	}
	defer srv.Close()
	dup, err := Serve(srv.Addr(), nil)
	if err == nil {
		dup.Close()
		t.Fatalf("second Serve on %s succeeded, want address-in-use error", srv.Addr())
	}
	// The original endpoint is unaffected.
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Get("http://" + srv.Addr() + "/debug/runtime-metrics")
	if err != nil {
		t.Fatalf("first server died after failed rebind: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("first server degraded after failed rebind: status %d", resp.StatusCode)
	}
}

// TestServeShutdownWhileServing: Close during active use terminates the
// listener; subsequent requests fail with a connection error, and a second
// Close is a no-op rather than a panic.
func TestServeShutdownWhileServing(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get("http://" + srv.Addr() + "/debug/runtime-metrics")
	if err != nil {
		t.Fatalf("pre-shutdown request: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining
	resp.Body.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := client.Get("http://" + srv.Addr() + "/debug/runtime-metrics"); err == nil {
		t.Error("request succeeded after Close")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close errored: %v", err)
	}
}

// TestServeGracefulShutdown: Shutdown drains and returns without error even
// with an /events stream open (CloseStreams unblocks the handler; a plain
// http.Server.Shutdown would wait on it forever).
func TestServeGracefulShutdown(t *testing.T) {
	tel := NewTelemetry()
	srv, err := Serve("127.0.0.1:0", tel)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if srv.Telemetry() != tel {
		t.Error("Telemetry() does not return the hub passed to Serve")
	}
	tel.PublishStatus(StatusSnapshot{Mode: "campaign", RunsTotal: 1})

	// Hold an SSE stream open across the shutdown.
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Get("http://" + srv.Addr() + "/events")
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer resp.Body.Close()
	// Read the initial frame so the handler is known to be inside its loop.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("reading initial SSE line: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := (&http.Client{Timeout: time.Second}).Get("http://" + srv.Addr() + "/status"); err == nil {
		t.Error("request succeeded after Shutdown")
	}
}

// serveTestHub starts a server around a hub pre-loaded with one run's
// registry and a terminal status snapshot.
func serveTestHub(t *testing.T) (*Server, *Telemetry) {
	t.Helper()
	tel := NewTelemetry()
	reg := NewRegistry()
	reg.Add("packets_sent", 42)
	reg.SetGauge("goodput_mbps", 17.5)
	h := reg.LogHistogram("frame_delay_ms")
	for _, v := range []float64{0, 1.5, 33, 33.1, 250, -2} {
		h.Add(v)
	}
	tel.ObserveRun(reg)
	tel.PublishStatus(StatusSnapshot{
		Mode: "campaign", Label: "urban-gcc",
		RunsDone: 1, RunsTotal: 1, WallSeconds: 0.25, SimRate: 12, Done: true,
	})
	srv, err := Serve("127.0.0.1:0", tel)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, tel
}

// TestServeMetricsExposition: /metrics returns a valid Prometheus text
// exposition carrying the hub's registry plus the status-derived progress
// gauges.
func TestServeMetricsExposition(t *testing.T) {
	srv, _ := serveTestHub(t)
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q is not the 0.0.4 text exposition", ct)
	}
	if err := checkPromExposition(string(body)); err != nil {
		t.Fatalf("exposition format: %v\n%s", err, body)
	}
	for _, want := range []string{
		"rpivideo_packets_sent_total 42",
		"rpivideo_goodput_mbps 17.5",
		`rpivideo_frame_delay_ms_bucket{le="+Inf"} 6`,
		"rpivideo_frame_delay_ms_count 6",
		"rpivideo_runs_done 1",
		"rpivideo_runs_total 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServeStatusJSON: /status is 404 before any snapshot and a JSON
// document matching the published snapshot after.
func TestServeStatusJSON(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + srv.Addr() + "/status")
	if err != nil {
		t.Fatalf("GET /status: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/status before any publish: status %d, want 404", resp.StatusCode)
	}

	srv.Telemetry().PublishStatus(StatusSnapshot{
		Mode: "fleet", Label: "fleet-contention",
		RunsDone: 3, RunsTotal: 8, RunErrors: 1, WallSeconds: 1.5,
		Cells: []CellStatus{{Cell: 0, Attaches: 8, PeakUsers: 8, OverloadEpochs: 2}},
	})
	resp, err = client.Get("http://" + srv.Addr() + "/status")
	if err != nil {
		t.Fatalf("GET /status: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /status: status %d", resp.StatusCode)
	}
	var st StatusSnapshot
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/status is not a StatusSnapshot: %v\n%s", err, body)
	}
	if st.Mode != "fleet" || st.RunsDone != 3 || st.RunsTotal != 8 || st.RunErrors != 1 {
		t.Errorf("round-tripped snapshot mismatch: %+v", st)
	}
	if len(st.Cells) != 1 || st.Cells[0].Attaches != 8 {
		t.Errorf("cells did not round-trip: %+v", st.Cells)
	}
	// The wire schema is snake_case.
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"mode", "runs_done", "runs_total", "run_errors", "wall_seconds", "sim_rate", "eta_seconds", "done"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("/status missing %q field", key)
		}
	}
}

// TestServeEventsSSE: /events frames each published snapshot as an SSE
// "status" event, starting with the current one.
func TestServeEventsSSE(t *testing.T) {
	srv, tel := serveTestHub(t)
	req, _ := http.NewRequest("GET", "http://"+srv.Addr()+"/events", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type %q, want text/event-stream", ct)
	}

	br := bufio.NewReader(resp.Body)
	readEvent := func() StatusSnapshot {
		t.Helper()
		var event, data string
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("reading SSE stream: %v", err)
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "":
				if event != "status" {
					t.Fatalf("SSE event type %q, want status", event)
				}
				var st StatusSnapshot
				if err := json.Unmarshal([]byte(data), &st); err != nil {
					t.Fatalf("SSE data is not a StatusSnapshot: %v\n%s", err, data)
				}
				return st
			default:
				t.Fatalf("unexpected SSE line %q", line)
			}
		}
	}

	// The initial frame replays the terminal snapshot serveTestHub published.
	if st := readEvent(); st.RunsDone != 1 || !st.Done {
		t.Errorf("initial SSE snapshot mismatch: %+v", st)
	}
	// A fresh publish streams a second frame.
	tel.PublishStatus(StatusSnapshot{Mode: "campaign", RunsDone: 2, RunsTotal: 2, Done: true})
	if st := readEvent(); st.RunsDone != 2 {
		t.Errorf("streamed SSE snapshot mismatch: %+v", st)
	}
}

// promLine matches one sample line: a metric name, an optional single-label
// set, and a float value.
var promLine = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)(\{[^}]*\})? (\S+)$`)

// checkPromExposition validates the Prometheus 0.0.4 text format closely
// enough for a regression gate without promtool: every line is a HELP/TYPE
// comment or a sample, every sample's family was declared by a TYPE line
// first, every value parses as a float, and histogram bucket series carry
// ascending le edges with cumulative counts ending at le="+Inf".
func checkPromExposition(text string) error {
	typed := map[string]string{}
	type bucketState struct {
		lastLe  float64
		lastCum float64
		started bool
	}
	buckets := map[string]*bucketState{}
	for n, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return fmt.Errorf("line %d: malformed TYPE comment %q", n+1, line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("line %d: not a sample line: %q", n+1, line)
		}
		name, labels, value := m[1], m[2], m[3]
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fmt.Errorf("line %d: value %q: %v", n+1, value, err)
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := typed[strings.TrimSuffix(name, suffix)]; ok && f == "histogram" {
				family = strings.TrimSuffix(name, suffix)
				break
			}
		}
		if _, ok := typed[family]; !ok {
			return fmt.Errorf("line %d: sample %q precedes its TYPE declaration", n+1, name)
		}
		if strings.HasSuffix(name, "_bucket") && typed[family] == "histogram" {
			st := buckets[family]
			if st == nil {
				st = &bucketState{}
				buckets[family] = st
			}
			le := strings.TrimSuffix(strings.TrimPrefix(labels, `{le="`), `"}`)
			edge := math.Inf(1)
			if le != "+Inf" {
				if edge, err = strconv.ParseFloat(le, 64); err != nil {
					return fmt.Errorf("line %d: le edge %q: %v", n+1, le, err)
				}
			}
			if st.started && edge <= st.lastLe {
				return fmt.Errorf("line %d: le edges not ascending in %s", n+1, family)
			}
			if st.started && v < st.lastCum {
				return fmt.Errorf("line %d: bucket counts not cumulative in %s", n+1, family)
			}
			st.lastLe, st.lastCum, st.started = edge, v, true
		}
	}
	return nil
}
