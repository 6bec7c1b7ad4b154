package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"rpivideo/internal/bond"
	"rpivideo/internal/cell"
	"rpivideo/internal/core"
	"rpivideo/internal/fault"
	"rpivideo/internal/repair"
)

// costsPath holds the per-run cost pins: what one execution of each
// scenario costs in the quantities that do not depend on the machine.
// Regenerate with
//
//	go test ./internal/experiments -run TestScenarioCosts -update
//
// on the PR that intentionally changes a cost, and say so in its
// description: the diff of this file is the change's cost statement. The
// update rewrites only the rows the gate would fail, and logs each one
// before and after; every other row keeps its pins byte for byte. Pins
// taken on another Go minor (or no pins at all) are rewritten whole.
const costsPath = baselineDir + "costs.json"

// allocTolerance is the relative band on the two allocation rows. Repeats
// on one Go version differ by a handful of allocations in thousands (map
// hash seeds decide when a map grows); everything else in a row is exact.
const allocTolerance = 0.01

// runCost is one pinned row.
type runCost struct {
	// Events is the number of simulator events scheduled and TimerPeak the
	// most pending at once (for a fleet: summed, and the maximum, over its
	// UAV runs).
	Events    uint64 `json:"events"`
	TimerPeak int    `json:"timer_peak"`
	// TraceEvents and TraceBytes size the trace and its JSONL export: the
	// per-run trace, or a fleet's cell event timeline. Zero with trace off.
	TraceEvents int   `json:"trace_events"`
	TraceBytes  int64 `json:"trace_bytes"`
	// Allocs and AllocBytes are the heap allocations of the execution,
	// export excluded.
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

// costFile is the layout of costs.json.
type costFile struct {
	// Go is the toolchain minor version ("go1.24") the allocation rows were
	// measured on; they are only enforced on the same one.
	Go string `json:"go"`
	// Rows is keyed by costKey.
	Rows map[string]runCost `json:"rows"`
}

// longHorizon is the one pinned run that is not a scenario: the 75 s
// bonded, repaired, faulted flight of core's TestResilientLongHorizonPinned
// (its second seed). The scenarios last 3–8 s, which neither fills a
// metrics.Dist past its first slice nor takes a link's rings round their
// buffers more than a few times; this row holds those structures' steady
// state to the same gate. Trace off only: the flight has no golden trace.
var longHorizon = Scenario{
	Name: "resilient-75s",
	Runs: 1,
	Config: core.Config{
		Env: cell.Rural, Op: cell.P1, Air: true, CC: core.CCGCC, Seed: 7, Duration: 75 * time.Second,
		Bond:   bond.Config{Policy: bond.PolicySpray},
		Repair: repair.Config{Enabled: true},
		Faults: fault.Config{
			RLF: true, Watchdog: true, KeyframeRecovery: true,
			Windows: []fault.Window{
				{Start: 20 * time.Second, Duration: 2 * time.Second, Path: fault.PathPrimary},
				{Start: 35 * time.Second, Duration: 200 * time.Millisecond, Loss: true},
				{Start: 50 * time.Second, Duration: 3 * time.Second, Path: fault.PathSecondary},
				{Start: 65 * time.Second, Duration: 100 * time.Millisecond, Loss: true},
			},
		},
	},
}

// campaignReuse is the serial multi-run row: repair-blackout four times
// through RunCampaignWithOptions on one worker, so runs 1–3 each start on
// the buffers the run before left (core's buffer pool). Every other row is
// one run, or a fleet; a change that stops a campaign's runs reusing their
// predecessor's buffers moves this row's allocations far past the
// tolerance. Trace off: a trace is what a run keeps, not what it reuses.
func campaignReuse() Scenario {
	sc, err := ScenarioByName("repair-blackout")
	if err != nil {
		panic(err)
	}
	sc.Name, sc.Runs = "repair-blackout-x4", 4
	return sc
}

func costKey(scenario string, trace bool) string {
	if trace {
		return scenario + " trace=on"
	}
	return scenario + " trace=off"
}

// goMinor trims a runtime.Version() to its minor release: "go1.24.3" and
// "go1.24rc1" are both "go1.24".
func goMinor(v string) string {
	i := strings.IndexByte(v, '.')
	if i < 0 {
		return v
	}
	for i++; i < len(v) && v[i] >= '0' && v[i] <= '9'; i++ {
	}
	return v[:i]
}

// measureCost executes sc once, serially, and reads off its cost. trace
// turns on what -trace exports: per-run tracing, or a fleet's cell events.
// The execution starts on an empty buffer pool, so its first run allocates
// its buffers as the first run of a process does, whatever ran before.
func measureCost(sc Scenario, trace bool) (runCost, error) {
	var (
		c             runCost
		export        func(io.Writer) error
		before, after runtime.MemStats
	)
	cfg := sc.Config
	cfg.Trace = trace
	core.DropPooledBuffers()
	runtime.ReadMemStats(&before)
	if sc.Fleet > 0 {
		fr, errs := core.RunFleet(core.FleetConfig{Config: cfg, Size: sc.Fleet, Sched: sc.Sched, Workers: 1, Events: trace})
		runtime.ReadMemStats(&after)
		for u, err := range errs {
			if err != nil {
				return c, fmt.Errorf("uav %d: %w", u, err)
			}
		}
		c.Events, c.TimerPeak, c.TraceEvents = fr.SimEvents, fr.SimTimerPeak, len(fr.CellEvents)
		export = fr.WriteCellEvents
	} else {
		results, errs := core.RunCampaignWithOptions(cfg, sc.Runs, core.CampaignOptions{Workers: 1})
		runtime.ReadMemStats(&after)
		for i, err := range errs {
			if err != nil {
				return c, fmt.Errorf("run %d: %w", i, err)
			}
		}
		for _, r := range results {
			c.Events += r.SimEvents
			c.TimerPeak = max(c.TimerPeak, r.SimTimerPeak)
			c.TraceEvents += r.Trace.Len()
		}
		export = func(w io.Writer) error { return core.WriteCampaignTrace(w, results) }
	}
	c.Allocs, c.AllocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	if trace {
		var buf bytes.Buffer
		if err := export(&buf); err != nil {
			return c, err
		}
		c.TraceBytes = int64(buf.Len())
	}
	return c, nil
}

// compareCost returns one line per pin of key that got violates. The four
// simulation rows are exact; the allocation rows are held to
// allocTolerance, and only when allocs is set.
func compareCost(pins map[string]runCost, key string, got runCost, allocs bool) []string {
	want, ok := pins[key]
	if !ok {
		return []string{fmt.Sprintf("%s: no pin in %s", key, costsPath)}
	}
	var bad []string
	exact := func(row string, want, got int64) {
		if want != got {
			bad = append(bad, fmt.Sprintf("%s: %s %d, pinned %d (%+d)", key, row, got, want, got-want))
		}
	}
	exact("events", int64(want.Events), int64(got.Events))
	exact("timer_peak", int64(want.TimerPeak), int64(got.TimerPeak))
	exact("trace_events", int64(want.TraceEvents), int64(got.TraceEvents))
	exact("trace_bytes", want.TraceBytes, got.TraceBytes)
	if allocs {
		within := func(row string, want, got uint64) {
			if d := relDelta(want, got); d > allocTolerance || d < -allocTolerance {
				bad = append(bad, fmt.Sprintf("%s: %s %d, pinned %d (%+.2f%%, tolerance %.0f%%)", key, row, got, want, 100*d, 100*allocTolerance))
			}
		}
		within("allocs", want.Allocs, got.Allocs)
		within("alloc_bytes", want.AllocBytes, got.AllocBytes)
	}
	return bad
}

func relDelta(want, got uint64) float64 {
	return (float64(got) - float64(want)) / float64(want)
}

// TestScenarioCosts is the performance regression gate: every scenario, with
// tracing off and on, the long-horizon flight and the serial four-run
// campaign (campaignReuse) must cost exactly the
// pinned number of simulator events, pending timers, trace events and trace
// bytes, and allocate within 1 % of the pinned count and volume. The on/off pairs are also the measured
// price of tracing. Wall-clock speed is bench/'s business, not this test's.
func TestScenarioCosts(t *testing.T) {
	allocs := !raceEnabled
	if *update && !allocs {
		t.Fatal("regenerate the cost pins without -race: the race detector changes what a run allocates")
	}
	var pins costFile
	raw, err := os.ReadFile(costsPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &pins); err != nil {
			t.Fatalf("%s: %v", costsPath, err)
		}
	case !*update:
		t.Fatalf("cost pins missing (regenerate with -update): %v", err)
	}
	sameGo := pins.Go == goMinor(runtime.Version())

	now := costFile{Go: goMinor(runtime.Version()), Rows: map[string]runCost{}}
	reuse := campaignReuse()
	for _, sc := range append(Scenarios(), longHorizon, reuse) {
		for _, trace := range []bool{false, true} {
			if trace && (sc.Name == longHorizon.Name || sc.Name == reuse.Name) {
				continue
			}
			key := costKey(sc.Name, trace)
			// The smaller of two executions: the first one in a process also
			// pays for whatever the packages build lazily.
			got, err := measureCost(sc, trace)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if allocs {
				again, err := measureCost(sc, trace)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got.Allocs, got.AllocBytes = min(got.Allocs, again.Allocs), min(got.AllocBytes, again.AllocBytes)
			}
			now.Rows[key] = got
			if *update {
				if want, ok := pins.Rows[key]; ok && sameGo && len(compareCost(pins.Rows, key, got, true)) == 0 {
					now.Rows[key] = want
				} else {
					t.Logf("%s: %+v → %+v", key, want, got)
				}
				continue
			}
			for _, line := range compareCost(pins.Rows, key, got, allocs && sameGo) {
				t.Error(line)
			}
			if want, ok := pins.Rows[key]; ok && allocs && !sameGo {
				t.Logf("%s: allocs %+.2f%%, alloc_bytes %+.2f%% against pins taken on %s (this is %s: logged, not enforced)",
					key, 100*relDelta(want.Allocs, got.Allocs), 100*relDelta(want.AllocBytes, got.AllocBytes), pins.Go, now.Go)
			}
		}
	}
	if *update {
		out, err := json.MarshalIndent(now, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(costsPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d rows, %s)", costsPath, len(now.Rows), now.Go)
		return
	}
	if t.Failed() {
		t.Logf("a cost moved: if the change means to, regenerate %s with -update and state the new cost in the PR", costsPath)
	}
}

// TestCompareCost checks that the gate bites where it should and only there.
func TestCompareCost(t *testing.T) {
	pin := runCost{Events: 100_000, TimerPeak: 40, TraceEvents: 9_000, TraceBytes: 1_000_000, Allocs: 10_000, AllocBytes: 5_000_000}
	pins := map[string]runCost{"s trace=on": pin}
	with := func(edit func(*runCost)) runCost {
		c := pin
		edit(&c)
		return c
	}
	cases := []struct {
		name   string
		key    string
		got    runCost
		allocs bool
		want   string // substring of the one expected line; "" = passes
	}{
		{"identical", "s trace=on", pin, true, ""},
		{"one more event", "s trace=on", with(func(c *runCost) { c.Events++ }), true, "events 100001"},
		{"one more pending timer", "s trace=on", with(func(c *runCost) { c.TimerPeak++ }), true, "timer_peak"},
		{"one fewer trace event", "s trace=on", with(func(c *runCost) { c.TraceEvents-- }), true, "trace_events"},
		{"one more trace byte", "s trace=on", with(func(c *runCost) { c.TraceBytes++ }), true, "trace_bytes"},
		{"allocs +0.9%", "s trace=on", with(func(c *runCost) { c.Allocs += 90 }), true, ""},
		{"allocs +1.1%", "s trace=on", with(func(c *runCost) { c.Allocs += 110 }), true, "allocs 10110"},
		{"allocs -1.1%", "s trace=on", with(func(c *runCost) { c.Allocs -= 110 }), true, "allocs 9890"},
		{"bytes +0.9%", "s trace=on", with(func(c *runCost) { c.AllocBytes += 45_000 }), true, ""},
		{"bytes +1.1%", "s trace=on", with(func(c *runCost) { c.AllocBytes += 55_000 }), true, "alloc_bytes"},
		{"allocs +50% on another Go or under race", "s trace=on", with(func(c *runCost) { c.Allocs += 5_000 }), false, ""},
		{"exact rows still bite without allocs", "s trace=on", with(func(c *runCost) { c.Events++ }), false, "events"},
		{"scenario missing from the file", "t trace=on", pin, true, "no pin"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lines := compareCost(pins, tc.key, tc.got, tc.allocs)
			switch {
			case tc.want == "" && len(lines) != 0:
				t.Fatalf("should pass, got %q", lines)
			case tc.want != "" && (len(lines) != 1 || !strings.Contains(lines[0], tc.want)):
				t.Fatalf("want one line mentioning %q, got %q", tc.want, lines)
			}
		})
	}
	for v, want := range map[string]string{"go1.24.0": "go1.24", "go1.22": "go1.22", "go1.25rc1": "go1.25", "devel +abc": "devel +abc"} {
		if got := goMinor(v); got != want {
			t.Errorf("goMinor(%q) = %q, want %q", v, got, want)
		}
	}
}
