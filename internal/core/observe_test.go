package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
	"rpivideo/internal/obs"
)

// traceTestConfig is a short urban GCC run with tracing on — long enough to
// exercise sends, drops, CC decisions and frame playback, short enough for
// the race detector.
func traceTestConfig() Config {
	return Config{
		Env:      cell.Urban,
		Op:       cell.P1,
		CC:       CCGCC,
		Seed:     42,
		Duration: 4 * time.Second,
		Trace:    true,
	}
}

// TestTraceSerialParallelByteIdentical is the acceptance criterion: the
// campaign trace export is byte-identical for 1 worker and 8 workers on the
// same seed.
func TestTraceSerialParallelByteIdentical(t *testing.T) {
	cfg := traceTestConfig()
	const runs = 4
	export := func(workers int) []byte {
		results, errs := RunCampaignWithOptions(cfg, runs, CampaignOptions{Workers: workers})
		for i, err := range errs {
			if err != nil {
				t.Fatalf("workers=%d run %d: %v", workers, i, err)
			}
		}
		var buf bytes.Buffer
		if err := WriteCampaignTrace(&buf, results); err != nil {
			t.Fatalf("workers=%d: WriteCampaignTrace: %v", workers, err)
		}
		return buf.Bytes()
	}
	serial := export(1)
	parallel := export(8)
	if len(serial) == 0 {
		t.Fatal("empty trace export")
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatal("trace export differs between -workers 1 and -workers 8")
	}
}

// TestCampaignMetricsWorkerInvariant is the metrics half of the same
// contract: the campaign registry is byte-identical at any worker count,
// because the Summary it is rendered from folds the runs in run-index order.
func TestCampaignMetricsWorkerInvariant(t *testing.T) {
	cfg := traceTestConfig()
	cfg.Trace = false // metrics need no trace
	const runs = 4
	export := func(workers int) []byte {
		results, errs := RunCampaignWithOptions(cfg, runs, CampaignOptions{Workers: workers})
		for i, err := range errs {
			if err != nil {
				t.Fatalf("workers=%d run %d: %v", workers, i, err)
			}
		}
		var buf bytes.Buffer
		if err := WriteCampaignMetrics(&buf, results); err != nil {
			t.Fatalf("workers=%d: WriteCampaignMetrics: %v", workers, err)
		}
		return buf.Bytes()
	}
	serial := export(1)
	parallel := export(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("campaign metrics differ between -workers 1 and -workers 8")
	}
	if !bytes.Contains(serial, []byte(`"packets_sent"`)) || !bytes.Contains(serial, []byte(`"owd_ms"`)) {
		t.Fatalf("metrics export missing expected keys:\n%s", serial)
	}
}

// TestTracingDoesNotPerturbResults verifies the determinism contract of
// internal/obs: a traced run's measurements equal the untraced run's,
// event for event and sample for sample.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	cfg := traceTestConfig()
	traced := Run(cfg)
	cfg.Trace = false
	plain := Run(cfg)

	if traced.PacketsSent != plain.PacketsSent ||
		traced.PacketsDelivered != plain.PacketsDelivered ||
		traced.PacketsLost != plain.PacketsLost ||
		traced.Overflows != plain.Overflows {
		t.Fatalf("packet counters diverge: traced %d/%d/%d/%d plain %d/%d/%d/%d",
			traced.PacketsSent, traced.PacketsDelivered, traced.PacketsLost, traced.Overflows,
			plain.PacketsSent, plain.PacketsDelivered, plain.PacketsLost, plain.Overflows)
	}
	if traced.OWDms.N() != plain.OWDms.N() || traced.OWDms.Sum() != plain.OWDms.Sum() {
		t.Fatalf("OWD distribution diverges: traced n=%d sum=%g plain n=%d sum=%g",
			traced.OWDms.N(), traced.OWDms.Sum(), plain.OWDms.N(), plain.OWDms.Sum())
	}
	if traced.FramesPlayed != plain.FramesPlayed || traced.FramesSkipped != plain.FramesSkipped {
		t.Fatalf("frame counters diverge: traced %d/%d plain %d/%d",
			traced.FramesPlayed, traced.FramesSkipped, plain.FramesPlayed, plain.FramesSkipped)
	}
	if traced.Trace == nil || traced.Trace.Len() == 0 {
		t.Fatal("traced run produced no events")
	}
	if plain.Trace != nil {
		t.Fatal("untraced run carries a tracer")
	}
}

// TestTraceCoversSubsystems checks that one faulted run emits events from
// each instrumented layer: link sends/recvs, outage windows, CC decisions
// and frame playback.
func TestTraceCoversSubsystems(t *testing.T) {
	cfg := traceTestConfig()
	cfg.Duration = 8 * time.Second
	cfg.Faults = fault.Config{
		Windows: []fault.Window{{Start: 3 * time.Second, Duration: 1 * time.Second, Dir: fault.Both}},
	}
	res := Run(cfg)
	counts := map[obs.Kind]int{}
	lastT := time.Duration(-1)
	for _, e := range res.Trace.Events() {
		counts[e.Kind]++
		if e.T < lastT {
			t.Fatalf("trace not time-ordered: %v after %v", e.T, lastT)
		}
		lastT = e.T
	}
	for _, kind := range []obs.Kind{obs.KindSend, obs.KindRecv, obs.KindOutageStart, obs.KindOutageEnd, obs.KindCC, obs.KindFramePlay} {
		if counts[kind] == 0 {
			t.Errorf("no %v events in a faulted video run (counts: %v)", kind, counts)
		}
	}
}

// TestTraceCapRing checks that TraceCap bounds the trace to the newest
// events while the emitted/dropped accounting keeps the totals.
func TestTraceCapRing(t *testing.T) {
	cfg := traceTestConfig()
	cfg.TraceCap = 100
	res := Run(cfg)
	if res.Trace.Len() != 100 {
		t.Fatalf("ring kept %d events, want 100", res.Trace.Len())
	}
	if res.Trace.Emitted() <= 100 || res.Trace.Dropped() != res.Trace.Emitted()-100 {
		t.Fatalf("ring accounting: emitted %d dropped %d", res.Trace.Emitted(), res.Trace.Dropped())
	}
	evs := res.Trace.Events()
	if evs[0].T > evs[len(evs)-1].T {
		t.Fatal("ring events not chronological")
	}
}

// growCounter is a writer that can grow and remembers being asked to.
type growCounter struct {
	bytes.Buffer
	grows  []int // the n of every Grow call
	at     []int // the number of writes that preceded it
	writes int
}

func (g *growCounter) Grow(n int) {
	g.grows, g.at = append(g.grows, n), append(g.at, g.writes)
	g.Buffer.Grow(n)
}

func (g *growCounter) Write(p []byte) (int, error) {
	g.writes++
	return g.Buffer.Write(p)
}

// plainWriter hides a buffer's Grow, as rpbench's file writer has none.
type plainWriter struct{ buf *bytes.Buffer }

func (w plainWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

// TestWriteCampaignTraceGrowsOnce: a writer with Grow is sized once, before
// the first byte, for every retained event of the campaign (nil and
// untraced results skipped), holds the whole export without regrowing, and
// receives the bytes a writer without Grow does.
func TestWriteCampaignTraceGrowsOnce(t *testing.T) {
	cfg := traceTestConfig()
	cfg.Duration = 2 * time.Second
	results, errs := RunCampaignWithOptions(cfg, 3, CampaignOptions{Workers: 1})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	untraced := cfg
	untraced.Trace = false
	results = append(results, nil, Run(untraced))
	events := 0
	for _, r := range results[:3] {
		events += r.Trace.Len()
	}

	var g growCounter
	if err := WriteCampaignTrace(&g, results); err != nil {
		t.Fatal(err)
	}
	if len(g.grows) != 1 || g.grows[0] != 72*events || g.at[0] != 0 {
		t.Fatalf("Grow calls %v after %v writes, want one of %d before the first write", g.grows, g.at, 72*events)
	}
	if g.Len() > 72*events {
		t.Errorf("export is %d bytes for %d events: the 72 B per event no longer covers it", g.Len(), events)
	}
	var plain bytes.Buffer
	if err := WriteCampaignTrace(plainWriter{&plain}, results); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), plain.Bytes()) || plain.Len() == 0 {
		t.Error("a growing writer received different bytes")
	}
}

// serialTrace is a campaign export as the serial loop writes it: each
// traced run's obs.WriteJSONL in turn.
func serialTrace(t *testing.T, results []*Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i, r := range results {
		if r != nil && r.Trace != nil {
			if err := obs.WriteJSONL(&buf, TraceRunMeta(r, i), r.Trace.Chunks()...); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

// mixedCampaign is a campaign whose traced runs — one of several pieces,
// a ring's two segments, one with no events at all — sit between nil and
// untraced results.
func mixedCampaign(t *testing.T) []*Result {
	t.Helper()
	cfg := traceTestConfig()
	ring := cfg
	ring.TraceCap = 3000
	untraced := cfg
	untraced.Trace = false
	empty := Run(untraced)
	empty.Trace = obs.New(0)
	results := []*Result{nil, Run(cfg), Run(untraced), nil, Run(ring), empty, nil, Run(untraced)}
	if n := results[1].Trace.Len(); n <= 2*2048 {
		t.Fatalf("the traced run has %d events, too few to span pieces", n)
	}
	if c := results[4].Trace.Chunks(); len(c) != 2 {
		t.Fatalf("the ring run hands out %d segments, want 2", len(c))
	}
	return results
}

// TestWriteCampaignTraceMatchesSerial: the pieced export writes the serial
// loop's bytes at any GOMAXPROCS, nil and untraced runs skipped between the
// traced ones.
func TestWriteCampaignTraceMatchesSerial(t *testing.T) {
	results := mixedCampaign(t)
	want := serialTrace(t, results)
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		var got bytes.Buffer
		err := WriteCampaignTrace(&got, results)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("GOMAXPROCS %d: export differs from the serial loop's (%d vs %d bytes)", procs, got.Len(), len(want))
		}
	}
}

// failingWriter takes limit bytes and then fails every write.
type failingWriter struct{ n, limit int }

var errWriterFull = errors.New("writer full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		return 0, errWriterFull
	}
	w.n += len(p)
	return len(p), nil
}

// TestWriteCampaignTraceWriterFails: a writer failing mid-stream stops the
// export with its error, and every goroutine the export started is gone
// when it returns.
func TestWriteCampaignTraceWriterFails(t *testing.T) {
	results := mixedCampaign(t)
	total := len(serialTrace(t, results))
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		before := runtime.NumGoroutine()
		w := &failingWriter{limit: total / 3}
		err := WriteCampaignTrace(w, results)
		runtime.GOMAXPROCS(prev)
		if !errors.Is(err, errWriterFull) {
			t.Fatalf("GOMAXPROCS %d: err = %v, want %v", procs, err, errWriterFull)
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("GOMAXPROCS %d: %d goroutines after the export, %d before", procs, runtime.NumGoroutine(), before)
			}
		}
	}
}
