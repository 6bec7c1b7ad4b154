package analyze

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/core"
	"rpivideo/internal/fault"
	"rpivideo/internal/obs"
	"rpivideo/internal/repair"
)

func us(v int64) time.Duration { return time.Duration(v) * time.Microsecond }

// TestAnalyzeSynthetic pins the analyzer's arithmetic on a hand-built
// trace: bin assignment, OWD stats, the Fig. 9 window ratios, outage
// pairing (including a still-open outage) and the repair roll-up.
func TestAnalyzeSynthetic(t *testing.T) {
	meta := obs.RunMeta{Label: "synthetic", Run: 3, Seed: 42, Duration: 4 * time.Second, Events: 14}
	events := []obs.Event{
		// Second 0: two OWD samples, one ctrl recv (excluded), one send/drop.
		{T: us(100_000), Kind: obs.KindSend, Dir: obs.DirUp, Seq: 1, Aux: 1200},
		{T: us(130_000), Kind: obs.KindRecv, Dir: obs.DirUp, Seq: 1, Aux: 1200, V: 30},
		{T: us(200_000), Kind: obs.KindRecv, Dir: obs.DirUp, Seq: 2, Aux: 800, V: 60},
		{T: us(250_000), Kind: obs.KindRecv, Dir: obs.DirDown, Flags: obs.FlagCtrl, Seq: 9, Aux: 64, V: 25},
		{T: us(300_000), Kind: obs.KindDrop, Dir: obs.DirUp, Seq: 3, Aux: 1},
		// Handover at t=1.5s with HET 80 ms: pre window [0.5s,1.5s) holds
		// samples 40 and 120 (ratio 3), post window [1.58s,2.58s) holds 50
		// and 100 (ratio 2).
		{T: us(600_000), Kind: obs.KindRecv, Dir: obs.DirUp, Seq: 4, Aux: 500, V: 40},
		{T: us(1_400_000), Kind: obs.KindRecv, Dir: obs.DirUp, Seq: 5, Aux: 500, V: 120},
		{T: us(1_500_000), Kind: obs.KindHandover, Seq: 7, Aux: 8, V: 80},
		{T: us(1_600_000), Kind: obs.KindRecv, Dir: obs.DirUp, Seq: 6, Aux: 500, V: 50},
		{T: us(2_500_000), Kind: obs.KindRecv, Dir: obs.DirUp, Seq: 7, Aux: 500, V: 100},
		// Closed outage on the uplink, open outage on the second chain.
		{T: us(1_500_000), Kind: obs.KindOutageStart, Dir: obs.DirUp},
		{T: us(1_580_000), Kind: obs.KindOutageEnd, Dir: obs.DirUp},
		{T: us(3_000_000), Kind: obs.KindOutageStart, Dir: obs.DirUp2},
		// Repair events.
		{T: us(3_100_000), Kind: obs.KindNack, Seq: 10, Aux: 2},
		{T: us(3_150_000), Kind: obs.KindRTX, Seq: 10, Aux: 1200},
		{T: us(3_200_000), Kind: obs.KindRepairOK, Seq: 10, Aux: 1, V: 90},
		{T: us(3_250_000), Kind: obs.KindRepairOK, Seq: 11, Aux: 0, V: 30},
		{T: us(3_300_000), Kind: obs.KindRepairAbandoned, Seq: 12, Aux: 3},
	}
	a := Run(meta, events)

	if len(a.Seconds) != 4 {
		t.Fatalf("bins = %d, want 4", len(a.Seconds))
	}
	s0 := a.Seconds[0]
	if s0.Sent != 1 || s0.Recv != 3 || s0.Dropped != 1 {
		t.Errorf("second 0 sent/recv/drop = %d/%d/%d, want 1/3/1", s0.Sent, s0.Recv, s0.Dropped)
	}
	if s0.OWDSamples != 3 || s0.OWDMinMs != 30 || s0.OWDMaxMs != 60 {
		t.Errorf("second 0 OWD = n%d min%g max%g, want n3 min30 max60", s0.OWDSamples, s0.OWDMinMs, s0.OWDMaxMs)
	}
	if want := (30.0 + 60 + 40) / 3; s0.OWDMeanMs != want {
		t.Errorf("second 0 OWD mean = %g, want %g", s0.OWDMeanMs, want)
	}
	if want := float64(1200+800+500) * 8 / 1e6; s0.GoodputMbps != want {
		t.Errorf("second 0 goodput = %g, want %g", s0.GoodputMbps, want)
	}
	if a.Seconds[1].Handovers != 1 {
		t.Errorf("handover not binned into second 1")
	}

	if len(a.Epochs) != 1 {
		t.Fatalf("epochs = %d, want 1", len(a.Epochs))
	}
	e := a.Epochs[0]
	if e.Kind != "handover" || e.AtUs != 1_500_000 || e.GapUs != 80_000 || e.Src != 7 || e.Dst != 8 {
		t.Errorf("epoch = %+v", e)
	}
	if !e.PreOK || e.PreSamples != 2 || e.PreRatio != 3 {
		t.Errorf("pre window = ratio %g ok %v n %d, want 3/true/2", e.PreRatio, e.PreOK, e.PreSamples)
	}
	if !e.PostOK || e.PostSamples != 2 || e.PostRatio != 2 {
		t.Errorf("post window = ratio %g ok %v n %d, want 2/true/2", e.PostRatio, e.PostOK, e.PostSamples)
	}

	wantOutages := []Outage{
		{Dir: "up", StartUs: 1_500_000, EndUs: 1_580_000},
		{Dir: "up2", StartUs: 3_000_000, EndUs: 4_000_000, Open: true},
	}
	if len(a.Outages) != len(wantOutages) {
		t.Fatalf("outages = %+v", a.Outages)
	}
	for i, want := range wantOutages {
		if a.Outages[i] != want {
			t.Errorf("outage %d = %+v, want %+v", i, a.Outages[i], want)
		}
	}

	r := a.Repair
	if r.NacksSent != 1 || r.RtxSent != 1 || r.RepairedByRtx != 1 || r.RepairedLate != 1 || r.Abandoned != 1 {
		t.Errorf("repair = %+v", r)
	}
	if r.HealMinMs != 30 || r.HealMaxMs != 90 || r.HealMeanMs != 60 {
		t.Errorf("heal stats = %g/%g/%g, want 30/60/90", r.HealMinMs, r.HealMeanMs, r.HealMaxMs)
	}

	pre, post := Fig9([]*RunAnalysis{a})
	if pre.Count != 1 || pre.Mean != 3 || post.Count != 1 || post.Mean != 2 {
		t.Errorf("Fig9 = pre %+v post %+v", pre, post)
	}
}

// TestWindowRatioInvalid: empty windows and non-positive minima are not
// valid ratios.
func TestWindowRatioInvalid(t *testing.T) {
	meta := obs.RunMeta{Duration: 3 * time.Second}
	a := Run(meta, []obs.Event{
		{T: us(1_500_000), Kind: obs.KindHandover, V: 50},
		{T: us(1_700_000), Kind: obs.KindRecv, Dir: obs.DirUp, V: 0}, // min ≤ 0
	})
	e := a.Epochs[0]
	if e.PreOK || e.PreSamples != 0 {
		t.Errorf("empty pre window reported OK: %+v", e)
	}
	if e.PostOK || e.PostSamples != 1 {
		t.Errorf("zero-min post window reported OK: %+v", e)
	}
}

func readBundle(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range []string{SeriesCSV, EpochsCSV, OutagesCSV, SummaryJSON} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("bundle missing %s: %v", name, err)
		}
		out[name] = b
	}
	return out
}

// TestLiveVsReplayBitIdentical is the headline acceptance check: analyzing
// a run's live tracer feed and analyzing its JSONL export must produce
// byte-identical report bundles.
func TestLiveVsReplayBitIdentical(t *testing.T) {
	cfg := core.Config{Env: cell.Urban, Air: true, CC: core.CCGCC, Seed: 11, Duration: 30 * time.Second, Trace: true}
	r := core.Run(cfg)

	// Live path: meta and the tracer's chunks in place, as rpbench -report
	// feeds them.
	live := []*RunAnalysis{Run(core.TraceRunMeta(r, 0), r.Trace.Chunks()...)}
	liveDir := t.TempDir()
	if err := WriteBundle(liveDir, live); err != nil {
		t.Fatal(err)
	}

	// Replay path: JSONL export, parsed back, analyzed.
	var buf bytes.Buffer
	if err := core.WriteCampaignTrace(&buf, []*core.Result{r}); err != nil {
		t.Fatal(err)
	}
	runs, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayDir := t.TempDir()
	if err := WriteBundle(replayDir, Trace(runs)); err != nil {
		t.Fatal(err)
	}

	a, b := readBundle(t, liveDir), readBundle(t, replayDir)
	for name := range a {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s differs between live and replay analysis", name)
		}
	}

	// The run must actually exercise the interesting paths, or the
	// bit-identity above is vacuous.
	if len(live[0].owd) == 0 {
		t.Error("no OWD samples analyzed")
	}
	var handovers int64
	for _, s := range live[0].Seconds {
		handovers += s.Handovers
	}
	if handovers == 0 {
		t.Error("run produced no handovers; pick a longer duration or different seed")
	}
	pre, post := Fig9(live)
	if pre.Count == 0 || post.Count == 0 {
		t.Errorf("Fig9 windows empty: pre %+v post %+v", pre, post)
	}
	if math.IsNaN(pre.Mean) || math.IsNaN(post.Mean) {
		t.Errorf("Fig9 means NaN: %g / %g", pre.Mean, post.Mean)
	}
}

// bundle writes one analysis' report bundle and reads it back.
func bundle(t *testing.T, a *RunAnalysis) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	if err := WriteBundle(dir, []*RunAnalysis{a}); err != nil {
		t.Fatal(err)
	}
	return readBundle(t, dir)
}

// TestAnalyzeChunkFeedsMatch: Run folds a trace however it is cut. The
// tracer's own chunks, one copied slice, one-event slices and slices cut at
// random points (with empty ones) must give the same bundle, epochs and OWD
// samples. The run has handovers, outages and repair, and spans
// several tracer chunks, so state crosses chunk edges on every path.
func TestAnalyzeChunkFeedsMatch(t *testing.T) {
	r := core.Run(core.Config{
		Env: cell.Urban, Air: true, CC: core.CCGCC, Seed: 11, Duration: 30 * time.Second, Trace: true,
		Faults: fault.Config{
			Windows: []fault.Window{
				{Start: 5 * time.Second, Duration: 60 * time.Millisecond, Dir: fault.Both, Loss: true},
				{Start: 12 * time.Second, Duration: 2 * time.Second, Dir: fault.Both},
			},
			Watchdog:         true,
			KeyframeRecovery: true,
		},
		Repair: repair.Config{Enabled: true},
	})
	meta, chunks, events := core.TraceRunMeta(r, 0), r.Trace.Chunks(), r.Trace.Events()
	if len(events) <= 3*2048 || len(chunks) < 4 {
		t.Fatalf("vacuous: %d events in %d chunks", len(events), len(chunks))
	}
	want := Run(meta, chunks...)
	if len(want.Epochs) == 0 || len(want.Outages) == 0 || want.Repair.NacksSent == 0 || len(want.owd) == 0 {
		t.Fatalf("vacuous: %d epochs, %d outages, %d NACKs, %d OWD samples", len(want.Epochs), len(want.Outages), want.Repair.NacksSent, len(want.owd))
	}
	wantBundle := bundle(t, want)

	single := make([][]obs.Event, len(events))
	for i := range events {
		single[i] = events[i : i+1]
	}
	rng := rand.New(rand.NewSource(5))
	cuts := []int{0, 0, len(events), len(events)} // an empty first and last slice
	for i := 0; i < 200; i++ {
		cuts = append(cuts, rng.Intn(len(events)+1))
	}
	slices.Sort(cuts)
	var random [][]obs.Event
	for i := 1; i < len(cuts); i++ {
		random = append(random, events[cuts[i-1]:cuts[i]])
	}
	for name, feed := range map[string][][]obs.Event{"events": {events}, "single": single, "random": random} {
		got := Run(meta, feed...)
		if !slices.Equal(got.Epochs, want.Epochs) {
			t.Errorf("%s: epochs %+v, from the tracer's chunks %+v", name, got.Epochs, want.Epochs)
		}
		if !slices.Equal(got.owd, want.owd) {
			t.Errorf("%s: %d OWD samples differ from the tracer's chunks' %d", name, len(got.owd), len(want.owd))
		}
		for file, b := range bundle(t, got) {
			if !bytes.Equal(b, wantBundle[file]) {
				t.Errorf("%s: %s differs from the tracer's chunks'", name, file)
			}
		}
	}
}

// linearWindowRatio is windowRatio as it was before OWDWindow: one pass over
// every sample per window. Kept as the oracle for the binary search.
func linearWindowRatio(a *RunAnalysis, fromUs, toUs int64) (ratio float64, n int64, ok bool) {
	var min, max float64
	for _, s := range a.owd {
		if s.TUs < fromUs || s.TUs >= toUs {
			continue
		}
		if n == 0 || s.Ms < min {
			min = s.Ms
		}
		if n == 0 || s.Ms > max {
			max = s.Ms
		}
		n++
	}
	if n == 0 || min <= 0 {
		return 0, n, false
	}
	return max / min, n, true
}

// TestOWDWindowMatchesLinearScan holds the searched window to the linear
// scan on random windows and on the edges a search gets wrong first: empty,
// before the first sample, after the last, zero-length, reversed bounds, and
// runs of samples sharing one timestamp.
func TestOWDWindowMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := &RunAnalysis{}
	tUs := int64(1_000_000)
	for i := 0; i < 5000; i++ {
		if rng.Intn(4) != 0 { // a quarter of the samples share a timestamp
			tUs += rng.Int63n(2000)
		}
		ms := 20 + 400*rng.Float64()
		if rng.Intn(500) == 0 {
			ms = 0 // a non-positive minimum invalidates its windows
		}
		a.owd = append(a.owd, OWDSample{TUs: tUs, Ms: ms})
	}
	first, last := a.owd[0].TUs, tUs
	windows := [][2]int64{
		{0, 0}, {0, first}, {0, first + 1}, {first, first}, {first, first + 1},
		{last, last + 1}, {last + 1, last + 2_000_000}, {last, last},
		{-5_000_000, -1}, {first, last + 1}, {math.MinInt64, math.MaxInt64},
		{last, first}, {first + 3_000_000, first + 1_000_000}, // from > to
	}
	for i := 0; i < 2000; i++ {
		from := first - 500_000 + rng.Int63n(last-first+1_000_000)
		windows = append(windows, [2]int64{from, from + rng.Int63n(1_500_000) - 100_000})
	}
	for _, w := range windows {
		from, to := w[0], w[1]
		gr, gn, gok := a.windowRatio(from, to)
		wr, wn, wok := linearWindowRatio(a, from, to)
		if gr != wr || gn != wn || gok != wok {
			t.Fatalf("window [%d,%d): ratio %g n %d ok %v, linear scan %g %d %v", from, to, gr, gn, gok, wr, wn, wok)
		}
		got := a.OWDWindow(from, to)
		if int64(len(got)) != wn {
			t.Fatalf("OWDWindow [%d,%d) holds %d samples, linear scan %d", from, to, len(got), wn)
		}
		for _, s := range got {
			if s.TUs < from || s.TUs >= to {
				t.Fatalf("OWDWindow [%d,%d) returned a sample at %d", from, to, s.TUs)
			}
		}
	}
}

// TestAnalyzeOutOfOrderTrace: obs.ReadJSONL does not enforce time order, so
// a trace edited by hand can hand Run recv events that go back in time. The
// window search needs sorted samples; Run restores the order itself, and
// since a window's max/min is a property of the set, the epochs come out as
// for the in-order trace.
func TestAnalyzeOutOfOrderTrace(t *testing.T) {
	r := core.Run(core.Config{Env: cell.Urban, Air: true, CC: core.CCGCC, Seed: 11, Duration: 30 * time.Second, Trace: true})
	meta, events := core.TraceRunMeta(r, 0), r.Trace.Events()
	want := Run(meta, events)
	if len(want.Epochs) == 0 || len(want.owd) == 0 {
		t.Fatalf("vacuous: %d epochs, %d OWD samples", len(want.Epochs), len(want.owd))
	}
	// A tracer's own feed is time-ordered: the fast path takes no sort.
	for i := 1; i < len(want.owd); i++ {
		if want.owd[i].TUs < want.owd[i-1].TUs {
			t.Fatalf("live trace's OWD samples go back in time at %d", i)
		}
	}

	var recv []int
	for i := range events {
		if events[i].Kind == obs.KindRecv {
			recv = append(recv, i)
		}
	}
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(recv), func(i, j int) {
		events[recv[i]], events[recv[j]] = events[recv[j]], events[recv[i]]
	})
	got := Run(meta, events) // must not panic
	if len(got.Epochs) != len(want.Epochs) {
		t.Fatalf("%d epochs from the shuffled trace, %d in order", len(got.Epochs), len(want.Epochs))
	}
	for i := range want.Epochs {
		if got.Epochs[i] != want.Epochs[i] {
			t.Errorf("epoch %d: shuffled %+v, in order %+v", i, got.Epochs[i], want.Epochs[i])
		}
	}
	for i := 1; i < len(got.owd); i++ {
		if got.owd[i].TUs < got.owd[i-1].TUs {
			t.Fatalf("OWD samples left unsorted at %d", i)
		}
	}
}
