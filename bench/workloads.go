package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"rpivideo/internal/bond"
	"rpivideo/internal/cell"
	"rpivideo/internal/core"
	"rpivideo/internal/dist"
	"rpivideo/internal/experiments"
	"rpivideo/internal/fault"
	"rpivideo/internal/obs"
	"rpivideo/internal/obs/analyze"
	"rpivideo/internal/repair"
)

// Frozen workload sizes. A later change that claims a gain may not edit
// them (see README.md); -scale shrinks them for the smoke test only.
const (
	defaultSeed = 7  // seed 1 is avoided: goldens and baselines pin it
	holdOutSeed = 11 // never used while tuning a change; claims must hold here too

	flightGCCSeconds       = 360 // the paper's full six-minute trajectory
	flightScreamSeconds    = 30  // SCReAM runs ≈15x slower than GCC per sim-s; 30 s keeps a round near 1.5 s
	flightResilientSeconds = 360
	sweepRuns              = 48 // campaign size per phase
	sweepScenario          = "repair-blackout"
	fleetSize              = 200
	fleetSeconds           = 10

	setupSamples = 3 // set-ups timed per run for setup_s: this process and two fresh ones
	minRounds    = 3 // the smoke test never shrinks a seed panel below this
	minPasses    = 2 // a time-bounded pass runs every seed of the panel at least twice
	fixedPasses  = 3 // passes over the panel when no -seconds is given
)

// metricDef names one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd lists the end-to-end metrics, reported per workload. All are
// host-side quantities. BENCHMARK.json repeats this table; a test keeps
// the two in step.
var endToEnd = []metricDef{
	{"sim_s_per_wall_s", "sim_s/s", "higher", 0.25},
	{"alloc_bytes_per_sim_s", "B/sim_s", "lower", 0.15},
	{"allocs_per_sim_s", "1/sim_s", "lower", 0.10},
	{"retained_bytes_per_sim_s", "B/sim_s", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// scale shrinks a workload for the smoke test. 1 is the frozen size.
type scale float64

func (s scale) seconds(full int) time.Duration {
	d := time.Duration(float64(full) * float64(s) * float64(time.Second))
	if d < 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

func (s scale) count(full, floor int) int {
	n := int(float64(full)*float64(s) + 0.5)
	if n < floor {
		n = floor
	}
	return n
}

// roundOut is everything one round produced. The runner keeps it
// referenced across a forced GC to measure what a campaign retains per run.
type roundOut struct {
	simSeconds float64
	ops        int      // simulated runs attempted
	failures   []string // one line per failed operation
	registry   []byte   // MetricsRegistry JSON: same-seed identity and sim_digest input

	// Exactly one of these is set, by workload kind.
	flight *core.Result
	sweep  *sweepOut
	fleet  *core.FleetResult
}

// sweepOut is one sweep-observed round: phase A (serial-engine campaign
// plus the whole export/parse/analyze path) and phase B (the same
// campaign through the distributed coordinator).
type sweepOut struct {
	results  []*core.Result
	trace    []byte
	metrics  []byte
	parsed   []obs.TraceRun
	analyses []*analyze.RunAnalysis
	summary  *core.Summary
	camp     *experiments.DistCampaign
	distReg  *obs.Registry
	shardLen int

	// Phase walls, for the traced pass.
	campaignS, exportS, readS, analyzeS, summarizeS, distS, foldS float64
}

// workload is one benchmark workload: a closed loop of fixed-work rounds.
type workload struct {
	Name   string
	Why    string
	Rounds int // seeds in the panel the timed rounds cycle through
	// A round is either one flight of this configuration or a call of
	// round; exactly one of the two is set.
	flight func(seed int64, sc scale) core.Config
	round  func(seed int64, sc scale) *roundOut
}

// run executes one round.
func (w workload) run(seed int64, sc scale) *roundOut {
	if w.flight != nil {
		return runFlight(w.flight(seed, sc))
	}
	return w.round(seed, sc)
}

var workloads = []workload{
	{
		Name:   "flight-gcc",
		Why:    "the paper's main aerial regime: one 360 s urban flight under GCC at 25 Mbps; sim, link, rtp, video, gcc and metrics do the work, scream/bond/repair/obs none",
		Rounds: 7,
		flight: func(seed int64, sc scale) core.Config { return flightConfig(core.CCGCC, seed, sc) },
	},
	{
		Name:   "flight-scream",
		Why:    "the same flight with gcc/TWCC swapped for scream/RFC 8888 feedback: the only workload where scream runs, and scream dominates it",
		Rounds: 5,
		flight: func(seed int64, sc scale) core.Config { return flightConfig(core.CCSCReAM, seed, sc) },
	},
	{
		Name:   "flight-resilient",
		Why:    "rural bonded flight with repair, RLF and scripted outages: two links, RTX and control classes, GCC's decrease path; the only workload where bond, repair and fault run",
		Rounds: 12,
		flight: resilientConfig,
	},
	{
		Name:   "sweep-observed",
		Why:    "the CI and analysis path: a traced 48-run campaign exported, parsed and analyzed, then repeated through the dist coordinator; obs, core campaign, metrics.Sketch and dist carry the cost",
		Rounds: 4,
		round:  runSweep,
	},
	{
		Name:   "fleet-contend",
		Why:    "200 UAVs contending for one cell map under PF scheduling with no congestion controller: three-phase fleet orchestration, cell.Contend and the CapacityShare hook",
		Rounds: 4,
		round:  runFleet,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func flightConfig(cc core.CCKind, seed int64, sc scale) core.Config {
	full := flightGCCSeconds
	if cc == core.CCSCReAM {
		full = flightScreamSeconds
	}
	return core.Config{Env: cell.Urban, Op: cell.P1, Air: true, CC: cc, Seed: seed, Duration: sc.seconds(full)}
}

func resilientConfig(seed int64, sc scale) core.Config {
	at := func(sec float64) time.Duration {
		return time.Duration(sec * float64(sc) * float64(time.Second))
	}
	span := func(d time.Duration) time.Duration {
		if d = time.Duration(float64(d) * float64(sc)); d < 50*time.Millisecond {
			d = 50 * time.Millisecond
		}
		return d
	}
	return core.Config{
		Env: cell.Rural, Op: cell.P1, Air: true, CC: core.CCGCC, Seed: seed,
		Duration: sc.seconds(flightResilientSeconds),
		Bond:     bond.Config{Policy: bond.PolicySpray},
		Repair:   repair.Config{Enabled: true},
		Faults: fault.Config{
			RLF: true, Watchdog: true, KeyframeRecovery: true,
			Windows: []fault.Window{
				{Start: at(90), Duration: span(2 * time.Second), Path: fault.PathPrimary},
				{Start: at(150), Duration: span(200 * time.Millisecond), Loss: true},
				{Start: at(210), Duration: span(3 * time.Second), Path: fault.PathSecondary},
				{Start: at(270), Duration: span(100 * time.Millisecond), Loss: true},
			},
		},
	}
}

// registryJSON renders a registry the way every export does.
func registryJSON(reg *obs.Registry) []byte {
	var b bytes.Buffer
	_ = reg.WriteJSON(&b) // bytes.Buffer writes cannot fail
	return b.Bytes()
}

func runFlight(cfg core.Config) *roundOut {
	out := &roundOut{simSeconds: cfg.Duration.Seconds(), ops: 1}
	res, err := core.RunWithTimeout(cfg, 0) // recovers a run's panic into err
	if err != nil {
		out.failures = append(out.failures, err.Error())
		return out
	}
	out.flight = res
	return out
}

// finish does the untimed part of a round: the Result identities and the
// registry bytes the digest and the same-seed check read.
func (o *roundOut) finish() {
	switch {
	case o.flight != nil:
		o.failures = append(o.failures, resultIdentities("flight", o.flight)...)
		o.registry = registryJSON(o.flight.MetricsRegistry())
	case o.sweep != nil:
		for i, r := range o.sweep.results {
			o.failures = append(o.failures, resultIdentities(fmt.Sprintf("campaign run %d", i), r)...)
		}
		o.registry = o.sweep.metrics
	case o.fleet != nil:
		o.failures = append(o.failures, summaryIdentities("fleet", o.fleet.Summary, o.fleet.Duration)...)
		o.registry = registryJSON(o.fleet.MetricsRegistry())
	}
}

func runSweep(seed int64, sc scale) *roundOut {
	runs := sc.count(sweepRuns, 2)
	out := &roundOut{ops: 2 * runs}
	fail := func(format string, args ...any) *roundOut {
		out.failures = append(out.failures, fmt.Sprintf(format, args...))
		return out
	}
	scn, err := experiments.ScenarioByName(sweepScenario)
	if err != nil {
		return fail("scenario: %v", err)
	}
	out.simSeconds = 2 * float64(runs) * scn.Config.Duration.Seconds()
	so := &sweepOut{}
	out.sweep = so

	// Phase A: the in-process campaign engine and the whole observed path.
	t := time.Now()
	so.results, err = experiments.RunScenarioWithOptions(scn, experiments.ScenarioOptions{Seed: seed, Workers: 2, Runs: runs})
	if err != nil {
		return fail("phase A: %v", err)
	}
	so.campaignS = lap(&t)
	var tb, mb bytes.Buffer
	if err := core.WriteCampaignTrace(&tb, so.results); err != nil {
		return fail("phase A trace export: %v", err)
	}
	if err := core.WriteCampaignMetrics(&mb, so.results); err != nil {
		return fail("phase A metrics export: %v", err)
	}
	so.trace, so.metrics = tb.Bytes(), mb.Bytes()
	so.exportS = lap(&t)
	if so.parsed, err = obs.ReadJSONL(bytes.NewReader(so.trace)); err != nil {
		return fail("phase A trace parse: %v", err)
	}
	so.readS = lap(&t)
	so.analyses = analyze.Trace(so.parsed)
	so.analyzeS = lap(&t)
	so.summary = core.Summarize(so.results)
	so.summarizeS = lap(&t)

	// Phase B: the same campaign sharded over two in-process dist workers.
	spec := experiments.DistSpec{Scenario: scn.Name, Seed: seed}
	raw, err := json.Marshal(spec)
	if err != nil {
		return fail("phase B spec: %v", err)
	}
	peers := []dist.Peer{
		dist.StartPipe("bench-a", experiments.DistRunner{}),
		dist.StartPipe("bench-b", experiments.DistRunner{}),
	}
	so.distReg = obs.NewRegistry()
	outcome, err := dist.Run(raw, dist.Config{Runs: runs, Metrics: so.distReg}, peers)
	if err != nil {
		return fail("phase B: %v", err)
	}
	so.distS = lap(&t)
	for run, rerr := range outcome.RunErrs {
		if rerr != nil {
			fail("phase B run %d: %v", run, rerr)
		}
	}
	for _, sh := range outcome.Shards {
		so.shardLen += len(sh)
	}
	if so.camp, err = experiments.FoldDistShards(spec, outcome); err != nil {
		return fail("phase B fold: %v", err)
	}
	so.foldS = lap(&t)

	// A and B must agree byte for byte; a mismatch fails every dist run.
	if !bytes.Equal(so.metrics, registryJSON(so.camp.Registry)) {
		fail("campaign and dist metrics differ (%d runs)", runs)
	}
	if !bytes.Equal(so.trace, so.camp.Trace) {
		fail("campaign and dist traces differ (%d runs)", runs)
	}
	return out
}

// lap returns the seconds since *t and restarts it.
func lap(t *time.Time) float64 {
	now := time.Now()
	d := now.Sub(*t).Seconds()
	*t = now
	return d
}

func fleetConfig(seed int64, sc scale) core.FleetConfig {
	return core.FleetConfig{
		Config: core.Config{Env: cell.Urban, Op: cell.P1, Air: true, CC: core.CCStatic, Seed: seed,
			Duration: sc.seconds(fleetSeconds)},
		Size:    sc.count(fleetSize, 4),
		Sched:   cell.SchedPF,
		Workers: 2,
		Events:  true,
	}
}

// countingWriter discards what it is given and counts it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func runFleet(seed int64, sc scale) *roundOut {
	fc := fleetConfig(seed, sc)
	out := &roundOut{ops: fc.Size, simSeconds: float64(fc.Size) * fc.Config.Duration.Seconds()}
	fr, errs := core.RunFleet(fc)
	for u, err := range errs {
		if err != nil {
			out.failures = append(out.failures, fmt.Sprintf("uav %d: %v", u, err))
		}
	}
	if fr == nil {
		return out
	}
	out.fleet = fr
	var cw countingWriter
	if err := fr.WriteMetrics(&cw); err != nil {
		out.failures = append(out.failures, fmt.Sprintf("fleet metrics export: %v", err))
	}
	if err := fr.WriteCellEvents(&cw); err != nil {
		out.failures = append(out.failures, fmt.Sprintf("fleet cell-event export: %v", err))
	}
	return out
}
