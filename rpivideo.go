// Package rpivideo reproduces the measurement system of "Analyzing
// Real-time Video Delivery over Cellular Networks for Remote Piloting
// Aerial Vehicles" (Baltaci et al., IMC '22) as a Go library.
//
// The library contains every system the study depends on, built from
// scratch: a deterministic discrete-event simulator, the RTP/RTCP wire
// formats (including transport-wide congestion control feedback and RFC
// 8888), send-side Google Congestion Control, SCReAM, an H.264-style
// encoder model, the GStreamer-like jitter-buffer player, an LTE access
// link emulator with handovers calibrated to the paper's statistics, and
// the published flight trajectory. See DESIGN.md for the system inventory
// and EXPERIMENTS.md for the paper-vs-measured record.
//
// The quickest start:
//
//	result := rpivideo.Run(rpivideo.Config{
//		Env:  rpivideo.Urban,
//		Air:  true,
//		CC:   rpivideo.GCC,
//		Seed: 1,
//	})
//	fmt.Printf("goodput: %.1f Mbps\n", result.GoodputMean())
//
// Every run is a pure function of its Config (including Seed): re-running
// with the same configuration reproduces the result bit-for-bit.
package rpivideo

import (
	"io"

	"rpivideo/internal/bond"
	"rpivideo/internal/cell"
	"rpivideo/internal/core"
	"rpivideo/internal/fault"
	"rpivideo/internal/obs"
	"rpivideo/internal/repair"
)

// Environment selects the measurement area of the campaign (§3.1).
type Environment = cell.Environment

// Environments.
const (
	// Urban is the Munich city-centre zone: dense base stations, abundant
	// uplink capacity (static 25 Mbps is sustainable).
	Urban = cell.Urban
	// Rural is the Munich-outskirts zone: sparse coverage, fluctuating
	// capacity around 8–12 Mbps.
	Rural = cell.Rural
)

// Operator selects the mobile network operator profile (Appendix A.3).
type Operator = cell.Operator

// Operators.
const (
	// P1 is the study's default operator.
	P1 = cell.P1
	// P2 is the competing operator with denser rural coverage.
	P2 = cell.P2
)

// CC selects the rate-control regime (§3.2).
type CC = core.CCKind

// Rate-control regimes.
const (
	// Static streams at a constant bitrate (25 Mbps urban / 8 Mbps rural).
	Static = core.CCStatic
	// GCC is Google Congestion Control over transport-wide feedback.
	GCC = core.CCGCC
	// SCReAM is Self-Clocked Rate Adaptation for Multimedia over RFC 8888
	// feedback.
	SCReAM = core.CCSCReAM
)

// Workload selects the traffic a run carries.
type Workload = core.Workload

// Workloads.
const (
	// Video is the RTP video stream of the main campaign.
	Video = core.WorkloadVideo
	// Ping is the no-cross-traffic probe workload of Fig. 13.
	Ping = core.WorkloadPing
)

// Config describes one measurement run; see core.Config for field docs.
type Config = core.Config

// Result aggregates one run's measurements; see core.Result.
type Result = core.Result

// Handover is one handover event with its execution time.
type Handover = cell.Event

// CampaignOptions tunes campaign execution: worker count and the live
// status sink. See core.CampaignOptions for field docs.
type CampaignOptions = core.CampaignOptions

// StatusSink observes a running campaign or fleet (CampaignOptions and
// FleetConfig take one): a StatusSnapshot after every completed run, and
// each run's metrics registry. Calls are serialized, in completion order.
type StatusSink = obs.StatusSink

// StatusSnapshot is one live progress sample: runs done, failed and total,
// wall time, simulation speed and ETA.
type StatusSnapshot = obs.StatusSnapshot

// FaultConfig arms deterministic fault injection on a run via
// Config.Faults: scripted coverage outages, the T310/T311 radio-link-
// failure model and the graceful-degradation responses. The zero value
// disables everything. See internal/fault for field docs and DESIGN.md §5
// for the model.
type FaultConfig = fault.Config

// FaultWindow is one scripted outage window (start, duration, direction).
type FaultWindow = fault.Window

// FaultEpisode is one realized outage in Result.FaultEpisodes.
type FaultEpisode = fault.Episode

// ParseFaultSchedule parses a comma-separated fault schedule like
// "45s+2s,90s+500ms/down" into scripted fault windows: `start+duration`
// is a coverage outage, `start~duration` a loss fade (service up, packets
// erased in flight).
func ParseFaultSchedule(spec string) ([]FaultWindow, error) { return fault.ParseSchedule(spec) }

// BondConfig arms dual-operator link bonding on a run via Config.Bond: a
// second radio chain over the competing operator, a per-path health
// monitor and a scheduling policy. The zero value disables bonding. See
// internal/bond for field docs and DESIGN.md §9 for the model.
type BondConfig = bond.Config

// BondPolicy selects the bonding scheduler.
type BondPolicy = bond.Policy

// Bonding scheduler policies.
const (
	// BondDuplicate copies every packet onto every live path.
	BondDuplicate = bond.PolicyDuplicate
	// BondFailover keeps a hot standby and switches on health breach.
	BondFailover = bond.PolicyFailover
	// BondCheapest follows the best path by RTT+loss score.
	BondCheapest = bond.PolicyCheapest
	// BondSpray stripes packets across live paths by weighted round-robin.
	BondSpray = bond.PolicySpray
)

// BondPathStats is one bonded path's accounting in Result.BondPaths.
type BondPathStats = core.BondPathStats

// RepairConfig arms the NACK/RTX packet-loss repair layer on a run via
// Config.Repair: receiver-side loss detection with RTT-adaptive retries,
// a bounded sender retransmission cache, and a repair budget accounted
// against the congestion controller's target rate. The zero value
// disables the layer; RepairConfig{Enabled: true} uses the calibrated
// defaults. See internal/repair for field docs and DESIGN.md §7 for the
// model.
type RepairConfig = repair.Config

// DefaultRepairConfig returns the calibrated repair parameters, enabled.
func DefaultRepairConfig() RepairConfig { return repair.DefaultConfig() }

// Tracer is the deterministic event recorder a run carries when
// Config.Trace is set; Result.Trace holds it. See internal/obs for the
// event schema and DESIGN.md §6 for the payload conventions.
type Tracer = obs.Tracer

// TraceEvent is one recorded simulation event (send, recv, drop, handover,
// RLF, outage, CC decision, frame playback).
type TraceEvent = obs.Event

// MetricsRegistry is a campaign metrics snapshot: counters, gauges and
// log-bucketed histograms (metrics sketches) with byte-stable JSON export.
type MetricsRegistry = obs.Registry

// WriteCampaignTrace renders every traced run of a campaign as JSONL in
// run-index order; the bytes are identical at any campaign worker count.
func WriteCampaignTrace(w io.Writer, results []*Result) error {
	return core.WriteCampaignTrace(w, results)
}

// WriteCampaignMetrics writes the campaign registry, rendered from the
// runs' Summary, as indented JSON.
func WriteCampaignMetrics(w io.Writer, results []*Result) error {
	return core.WriteCampaignMetrics(w, results)
}

// Run executes one measurement run.
func Run(cfg Config) *Result { return core.Run(cfg) }

// RunCampaignWithOptions executes runs repetitions of cfg under seeds
// derived by DeriveSeed, fanned out across
// opts.Workers workers (one per logical CPU when zero). Results and per-run
// errors come back indexed by run, so the output is identical at any
// parallelism; a run that panics comes back as its error without failing
// the others.
func RunCampaignWithOptions(cfg Config, runs int, opts CampaignOptions) ([]*Result, []error) {
	return core.RunCampaignWithOptions(cfg, runs, opts)
}

// DeriveSeed exposes the campaign seed derivation so externally-driven
// sweeps can reproduce individual campaign runs.
func DeriveSeed(base int64, run int) int64 { return core.DeriveSeed(base, run) }

// Summary is a campaign-level aggregate built on mergeable quantile
// sketches: counters sum exactly, distribution queries answer within
// metrics.SketchAlpha relative error, and memory is O(buckets) regardless
// of how many runs were folded.
type Summary = core.Summary

// Summarize folds per-run results into a sketch-based campaign summary.
func Summarize(results []*Result) *Summary { return core.Summarize(results) }

// FleetConfig runs N UAVs in one process against one shared base-station
// map with per-cell PRB schedulers, so every UAV attached to a cell
// splits its capacity. Results are byte-identical at any worker count.
// See internal/core/fleet.go for field docs and DESIGN.md §10 for the
// model.
type FleetConfig = core.FleetConfig

// FleetResult is the aggregate of one fleet execution: the folded
// summary, per-UAV goodput distribution, per-cell contention stats and
// the attach/detach/overload event timeline.
type FleetResult = core.FleetResult

// SchedulerKind selects the per-cell PRB scheduler for fleet runs.
type SchedulerKind = cell.SchedulerKind

// Per-cell PRB schedulers.
const (
	// SchedRR splits a cell's capacity equally among attached UAVs.
	SchedRR = cell.SchedRR
	// SchedPF weights shares by per-UAV spectral efficiency.
	SchedPF = cell.SchedPF
)

// RunFleet executes a fleet of UAVs against one shared cell deployment.
// The per-UAV errs slice is indexed by UAV; a nil result with a single
// error reports a configuration rejection (e.g. a bonded base config).
func RunFleet(fc FleetConfig) (*FleetResult, []error) { return core.RunFleet(fc) }

// ParseFleetSpec parses a CLI fleet spec: "N" or "N/rr|pf".
func ParseFleetSpec(spec string) (int, SchedulerKind, error) { return core.ParseFleetSpec(spec) }
