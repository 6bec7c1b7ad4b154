package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/flight"
	"rpivideo/internal/metrics"
	"rpivideo/internal/obs"
	"rpivideo/internal/sim"
)

// MaxFleetSize bounds -fleet so a typo cannot ask for a trillion UAVs.
const MaxFleetSize = 1 << 20

// FleetConfig describes a fleet run: N UAVs flying concurrently against
// one shared base-station map, with per-cell PRB schedulers splitting each
// cell's capacity across the UAVs camped on it.
type FleetConfig struct {
	// Config is the per-UAV template. Its Seed is the fleet base seed:
	// the shared deployment is drawn from it, and UAV u flies with
	// DeriveSeed(Seed, u) — the same derivation campaigns use — so fleet
	// results are pure functions of (Config, Size, Sched) and independent
	// of Workers. Bonded configs are rejected: contention is modeled for
	// the single-operator chain.
	Config Config
	// Size is the number of UAVs (values below 1 mean 1).
	Size int
	// Sched selects the per-cell PRB scheduler (round-robin by default).
	Sched cell.SchedulerKind
	// Epoch is the scheduling epoch: attachment is sampled and shares
	// recomputed at this cadence. Default 100 ms.
	Epoch time.Duration
	// OverloadShare is the per-user share floor below which a multi-user
	// cell-epoch counts as overloaded. Default 0.25.
	OverloadShare float64
	// Spread is the radius in metres of the uniform disc over which UAV
	// origins scatter around the deployment centre. Zero selects a
	// per-environment default that keeps the fleet inside the map.
	Spread float64
	// Workers caps parallelism for the per-UAV phases (0 = GOMAXPROCS).
	// The result is byte-identical at any setting.
	Workers int
	// Events retains the per-cell attach/detach/overload event timeline in
	// the result. Off by default: a 500-UAV urban fleet generates tens of
	// thousands of events.
	Events bool
	// StatusSink, when non-nil, receives live telemetry: a per-cell
	// snapshot after the phase-2 scheduling fold, then a progress snapshot
	// (with the cell table attached) after every completed UAV run. Purely
	// observational.
	StatusSink obs.StatusSink
}

// FleetResult is the aggregate of one fleet run.
type FleetResult struct {
	Size  int
	Sched cell.SchedulerKind
	Epoch time.Duration
	// Seed is the fleet base seed; Duration the per-UAV run length.
	Seed     int64
	Duration time.Duration
	// Deployment is the shared base-station map the fleet contended for.
	Deployment []cell.BS
	// Summary folds every UAV's Result in UAV-index order — the same
	// streaming fold campaigns use, so memory stays O(1) in fleet size.
	Summary *Summary
	// PerUAVGoodput holds one sample per UAV, kept exactly: its mean
	// goodput in Mbps. The median of this distribution is the
	// contention-monotonicity metric (non-increasing in fleet size).
	PerUAVGoodput metrics.Dist
	// Attaches, Detaches, OverloadEpochs, PeakCellUsers, MinShare and
	// ShareHist summarize the scheduling fold (see cell.Contention).
	Attaches       int
	Detaches       int
	OverloadEpochs int
	PeakCellUsers  int
	MinShare       float64
	ShareHist      metrics.Sketch
	// CellEvents is the attach/detach/overload timeline (Events=true).
	CellEvents []obs.Event
	// SimEvents sums the UAV runs' Result.SimEvents and SimTimerPeak is
	// the largest Result.SimTimerPeak: the fleet's simulator cost.
	SimEvents    uint64
	SimTimerPeak int

	metrics *obs.Registry
}

// ParseFleetSpec parses the rpbench -fleet argument: "N" or "N/sched",
// where sched names a scheduler ("rr" or "pf"). The bare form selects
// round-robin.
func ParseFleetSpec(spec string) (int, cell.SchedulerKind, error) {
	s := strings.TrimSpace(spec)
	kind := cell.SchedRR
	if i := strings.IndexByte(s, '/'); i >= 0 {
		k, err := cell.ParseScheduler(s[i+1:])
		if err != nil {
			return 0, 0, fmt.Errorf("fleet spec %q: %w", spec, err)
		}
		kind = k
		s = s[:i]
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, 0, fmt.Errorf("fleet spec %q: size must be an integer", spec)
	}
	if n < 1 {
		return 0, 0, fmt.Errorf("fleet spec %q: size must be at least 1", spec)
	}
	if n > MaxFleetSize {
		return 0, 0, fmt.Errorf("fleet spec %q: size exceeds the %d-UAV cap", spec, MaxFleetSize)
	}
	return n, kind, nil
}

// defaultSpread picks an origin-scatter radius that keeps the fleet over
// the deployment: half the urban grid span, or the rural ring radius scale.
func defaultSpread(env cell.Environment, op cell.Operator) float64 {
	if env == cell.Urban {
		return 750
	}
	if op == cell.P2 {
		return 600
	}
	return 1500
}

// fleetDuration resolves the per-UAV run length without consuming any
// UAV-private randomness (the ground profile's length is fixed; only its
// waypoints are random).
func fleetDuration(cfg Config) time.Duration {
	if cfg.Duration > 0 {
		return cfg.Duration
	}
	if cfg.Air {
		return flight.StandardFlight().Duration()
	}
	return 6 * time.Minute
}

// recordUAV records into k, on b, the sky of a fleet UAV that flies cfg,
// with its attach row sampled at every scheduling-epoch start (RunFleet's
// phase 1): the sky the UAV's run would record itself.
func recordUAV(k *sky, cfg Config, dur, epoch time.Duration, b *runBuffers) *sky {
	s := b.simulator(cfg.Seed)
	_, stateAt := setupMobility(cfg, s)
	return k.record(cfg, cfg.Op, s.Stream("cell"), &b.primary, stateAt, dur, epoch)
}

// RunFleet executes N concurrent flights against one shared base-station
// map in a single process, in three phases:
//
//  1. Per UAV (parallel): record the UAV's sky over the shared map, with
//     its attachment at scheduling-epoch granularity (recordUAV). Attachment
//     is RSRP-driven: contention changes a UAV's capacity, never its serving
//     cell, so the sky does not depend on the shares phase 2 derives from it.
//  2. Fold (serial): cell.Contend turns the attach rows into per-UAV
//     per-epoch capacity shares under the selected PRB scheduler, plus
//     per-cell stats and the attach/detach/overload event stream.
//  3. Per UAV (parallel): the full run on the recorded sky, with its share
//     row, folded into the Summary in UAV-index order. It builds and steps
//     no radio.
//
// Every phase is a pure function of (Config, Size, Sched, ...), so the
// result — down to exported bytes — is identical at any Workers count.
// The errs slice is indexed by UAV; a failed UAV is simply missing from
// the aggregate.
func RunFleet(fc FleetConfig) (*FleetResult, []error) {
	if fc.Size < 1 {
		fc.Size = 1
	}
	if fc.Epoch <= 0 {
		fc.Epoch = 100 * time.Millisecond
	}
	if fc.OverloadShare <= 0 {
		fc.OverloadShare = 0.25
	}
	base := fc.Config
	if base.Bond.Enabled() {
		return nil, []error{errors.New("fleet: bonded configs are not supported (contention models the single-operator chain)")}
	}
	// One simulator draws the deployment and then, reset per UAV, each
	// UAV's origin.
	draw := sim.New(base.Seed)
	cells := cell.Deployment(base.Env, base.Op, draw.Stream("fleet-deploy"))
	dur := fleetDuration(base)
	spread := fc.Spread
	if spread <= 0 {
		spread = defaultSpread(base.Env, base.Op)
	}

	// Derive each UAV's private config: own seed, own origin offset
	// (uniform over a disc — its own "fleet-origin" stream, so neither
	// the flight nor the radio streams shift). Only phase 1 reads the
	// shared cells, so a Result's Config never holds the 500-way-shared
	// deployment.
	cfgs := make([]Config, fc.Size)
	for u := range cfgs {
		c := base
		c.Seed = DeriveSeed(base.Seed, u)
		c.Duration = dur
		// Per-UAV traces stay off in fleets: the fleet-level surface is
		// the cell event timeline plus the folded summary.
		c.Trace = false
		draw.Reset(c.Seed)
		org := draw.Stream("fleet-origin")
		r := spread * math.Sqrt(org.Float64())
		theta := 2 * math.Pi * org.Float64()
		c.OffsetX += r * math.Cos(theta)
		c.OffsetY += r * math.Sin(theta)
		cfgs[u] = c
	}

	errs := make([]error, fc.Size)
	exec := executor{workers: fc.Workers, unit: "fleet uav"}

	// Phase 1: the skies, each recorded on a buffer set from the pool. A
	// UAV that fails here has no attach row: it never attached. Nothing is
	// published yet: the status view starts with the cell table phase 2
	// produces.
	skies, rows := make([]sky, fc.Size), make([][]cell.AttachSample, fc.Size)
	exec.run(errs, func(u int) *Result {
		c := cfgs[u]
		c.Cells = cells
		rows[u] = withBuffers(func(b *runBuffers) *sky { return recordUAV(&skies[u], c, dur, fc.Epoch, b) }).attach
		return nil
	}, func(int, *Result) {})

	// Phase 2: the scheduling fold.
	ct := cell.Contend(rows, cells, fc.Sched, fc.OverloadShare, fc.Epoch, fc.Events)

	fr := &FleetResult{
		Size:           fc.Size,
		Sched:          fc.Sched,
		Epoch:          fc.Epoch,
		Seed:           base.Seed,
		Duration:       dur,
		Deployment:     cells,
		Summary:        &Summary{},
		Attaches:       ct.Attaches,
		Detaches:       ct.Detaches,
		OverloadEpochs: ct.OverloadEpochs,
		PeakCellUsers:  ct.PeakUsers,
		MinShare:       ct.MinShare,
		ShareHist:      ct.ShareHist,
		CellEvents:     ct.Events,
	}

	// The live status view of the shared cells is available as soon as the
	// scheduling fold completes — before any UAV has finished its full run.
	cellStatuses := cellStatusTable(ct.Cells)
	if fc.StatusSink != nil {
		fc.StatusSink.PublishStatus(obs.StatusSnapshot{
			Mode: "fleet", RunsTotal: fc.Size, Cells: cellStatuses,
		})
	}

	// Phase 3: full runs with the shares installed, folded in UAV-index
	// order. A UAV that failed phase 1 keeps its error and is not run. The
	// fold keeps nothing of a Result, so it gives each back to the pool for
	// the UAVs after it to build theirs on.
	exec.sink = fc.StatusSink
	exec.mode, exec.cells = "fleet", cellStatuses
	exec.run(errs, func(u int) *Result {
		row := ct.Shares[u]
		share := func(now time.Duration) float64 { return row[min(max(int(now/fc.Epoch), 0), len(row)-1)] }
		return withBuffers(func(b *runBuffers) *Result { return b.run(runPool.result(), cfgs[u], &skies[u], share, false) })
	}, func(_ int, r *Result) {
		if r != nil {
			fr.Summary.AddResult(r)
			fr.PerUAVGoodput.Add(r.Goodput.Mean())
			fr.SimEvents += r.SimEvents
			fr.SimTimerPeak = max(fr.SimTimerPeak, r.SimTimerPeak)
			runPool.putResult(r)
		}
	})

	fr.finishMetrics()
	return fr, errs
}

// cellStatusTable converts the scheduling fold's per-cell stats into the
// live status shape. Built once per fleet run; the same slice is attached
// to every snapshot (StatusSink takes ownership and must not mutate it,
// which the Telemetry hub honors).
func cellStatusTable(cells []cell.CellStats) []obs.CellStatus {
	if len(cells) == 0 {
		return nil
	}
	out := make([]obs.CellStatus, len(cells))
	for i, cs := range cells {
		out[i] = obs.CellStatus{
			Cell:           cs.Cell,
			Attaches:       cs.Attaches,
			PeakUsers:      cs.PeakUsers,
			OverloadEpochs: cs.OverloadEpochs,
		}
	}
	return out
}

// finishMetrics renders the fleet's registry: the Summary's, with the
// fleet-level keys layered over it. Fleet keys are namespaced fleet_* so a
// fleet export can never be mistaken for (or pollute) a solo campaign
// baseline.
func (fr *FleetResult) finishMetrics() {
	reg := fr.Summary.MetricsRegistry()
	fr.metrics = reg
	reg.Add("fleet_size", int64(fr.Size))
	reg.Add("fleet_cells", int64(len(fr.Deployment)))
	reg.Add("fleet_attaches", int64(fr.Attaches))
	reg.Add("fleet_detaches", int64(fr.Detaches))
	reg.Add("fleet_overload_epochs", int64(fr.OverloadEpochs))
	reg.Add("fleet_cell_events", int64(len(fr.CellEvents)))
	reg.SetGauge("fleet_peak_cell_users", float64(fr.PeakCellUsers))
	// A single watermark write, so the max-merge semantics of gauges
	// cannot invert this minimum.
	reg.SetGauge("fleet_min_share", fr.MinShare)
	reg.LogHistogram("fleet_share").Merge(&fr.ShareHist)
	goodput := reg.LogHistogram("fleet_uav_goodput_mbps")
	for _, v := range fr.PerUAVGoodput.Samples() {
		goodput.Add(v)
	}
	reg.SetGauge("fleet_median_uav_goodput_mbps", fr.PerUAVGoodput.Median())
}

// MetricsRegistry returns the fleet's metrics: the registry of the UAVs'
// Summary plus the fleet_* contention keys. Byte-stable at any worker count.
func (fr *FleetResult) MetricsRegistry() *obs.Registry { return fr.metrics }

// WriteMetrics writes the fleet metrics registry as canonical JSON.
func (fr *FleetResult) WriteMetrics(w io.Writer) error { return fr.metrics.WriteJSON(w) }

// WriteCellEvents writes the fleet's cell event timeline (attach, detach,
// overload transitions) in the standard JSONL trace format, under a single
// fleet meta line.
func (fr *FleetResult) WriteCellEvents(w io.Writer) error {
	meta := obs.RunMeta{
		Label:    fmt.Sprintf("fleet-%d-%s-%s", fr.Size, fr.Sched, fr.Summary.Config.Label()),
		Seed:     fr.Seed,
		Duration: fr.Duration,
		Events:   int64(len(fr.CellEvents)),
	}
	return obs.WriteJSONL(w, meta, fr.CellEvents)
}

// MedianUAVGoodput returns the median over UAVs of each UAV's mean goodput
// (Mbps) — the fleet's headline contention metric.
func (fr *FleetResult) MedianUAVGoodput() float64 { return fr.PerUAVGoodput.Median() }
