package core

import (
	"fmt"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
	"rpivideo/internal/metrics"
	"rpivideo/internal/obs"
	"rpivideo/internal/video"
)

// AltBucket labels the altitude buckets of Fig. 13.
type AltBucket int

// Altitude buckets (metres above ground).
const (
	Alt0to20 AltBucket = iota
	Alt21to60
	Alt61to100
	Alt101to140
	altBuckets
)

// String implements fmt.Stringer.
func (b AltBucket) String() string {
	switch b {
	case Alt0to20:
		return "0-20m"
	case Alt21to60:
		return "21-60m"
	case Alt61to100:
		return "61-100m"
	default:
		return "101-140m"
	}
}

// altBandEdges are the inclusive upper edges (m) of every bucket but the
// last.
var altBandEdges = [...]float64{20, 60, 100}

// BucketFor returns the altitude bucket for a height in metres.
func BucketFor(alt float64) AltBucket {
	b := Alt0to20
	for _, edge := range altBandEdges {
		if alt <= edge {
			break
		}
		b++
	}
	return b
}

// Telemetry log-histogram names. These live in Result.Telemetry, not in
// MetricsRegistry(), and surface on the live /metrics endpoint as
// rpivideo_<name>_bucket series.
const (
	// TelemetryFrameDelay is each played frame's encode-to-play latency (ms).
	TelemetryFrameDelay = "frame_delay_ms"
	// TelemetryQueueDelay is each served uplink packet's queueing delay (ms).
	TelemetryQueueDelay = "queue_delay_ms"
	// TelemetryNackRTT is each retransmission heal's loss-to-repair time (ms).
	TelemetryNackRTT = "nack_rtt_ms"
	// TelemetryHandoverInterruption is each committed handover's execution
	// time (ms).
	TelemetryHandoverInterruption = "handover_interruption_ms"
)

// Result aggregates one run's measurements.
type Result struct {
	Config   Config
	Duration time.Duration

	// Network-level metrics. Every distribution of a Result is a
	// metrics.Sketch, filled as its samples arrive.
	OWDms                                                 metrics.Sketch // one-way delay of delivered media packets (ms)
	OWDByAlt                                              [altBuckets]metrics.Sketch
	Goodput                                               metrics.Sketch // per-second delivered Mbps
	PER                                                   float64        // radio loss fraction
	Handovers                                             []cell.Event
	PacketsSent, PacketsDelivered, PacketsLost, Overflows int

	// Control-plane (RTCP sender report) counters on the media uplink,
	// kept apart from the media counters so PER stays media-only.
	CtrlPacketsSent, CtrlPacketsDelivered, CtrlPacketsLost int

	// Video metrics (video workloads only).
	FPS           metrics.Sketch // frames played per second samples
	PlaybackMs    metrics.Sketch // playback latency per played frame (ms)
	SSIM          metrics.Sketch // per-frame SSIM incl. zeros for skipped
	Stalls        []video.Stall
	StallsPerMin  float64
	FramesPlayed  int
	FramesSkipped int

	// Ping metrics (ping workloads only): RTT in ms bucketed by altitude.
	RTTByAlt [altBuckets]metrics.Sketch
	RTTms    metrics.Sketch

	// RTCP-derived metrics (video workloads): RFC 3550 interarrival jitter
	// sampled at each receiver report, and the sender-side RTT computed
	// from the LSR/DLSR fields.
	JitterMs  metrics.Sketch
	RTCPRTTms metrics.Sketch

	// MultipathDuplicates counts packets whose duplicate copy arrived after
	// the first (bonded runs only). It is derived: the sum of the per-path
	// Suppressed counters in BondPaths.
	MultipathDuplicates int

	// Bonding metrics (bonded runs only; see internal/bond).
	BondPolicy   string          // scheduling policy name
	BondPaths    []BondPathStats // per-path accounting, path 0 = primary
	BondSwitches int             // active-path changes (failover/cheapest)
	// Health-monitor transitions past the hysteresis.
	BondPathDownEvents, BondPathUpEvents int
	// Reorder-buffer outcomes (striping policies only): packets dropped as
	// too late, and forced releases (deadline or cap) past a gap.
	BondReorderLate   int
	BondReorderForced int
	// AQMDrops counts CoDel head drops on the uplink (AQM runs only).
	AQMDrops int

	// SCReAM-internal counters (zero for other controllers).
	ScreamLosses       int
	ScreamLossesInBand int
	ScreamLossesWindow int
	ScreamDiscards     int

	// Ramp-up: first time the controller target reached 99% of MaxRate
	// (zero if never).
	RampUpTo25 time.Duration

	// Trace holds the run's event trace when Config.Trace is set; nil
	// otherwise. Runs are single-goroutine, so the trace is complete and
	// time-ordered when Run returns.
	Trace *obs.Tracer

	// Telemetry holds the run's live-ops log histograms (frame delay, queue
	// delay, NACK RTT, handover interruption). It is kept separate from
	// MetricsRegistry(): the campaign surface is pinned by checked-in
	// baselines and the regression gate flags any new metric as drift, while
	// this registry feeds only the live /metrics exposition. It never rides
	// the dist wire (shards serialize MetricsRegistry only), so adding it
	// cannot perturb distributed byte-identity.
	Telemetry *obs.Registry

	// Fault-injection metrics (video workloads with Config.Faults armed).
	Outages           int             // realized outage episodes
	OutageTotal       time.Duration   // summed episode length
	OutageMs          metrics.Sketch  // per-episode length (ms)
	RLFs              int             // T310-expiry radio-link failures
	HandoverFailures  int             // handovers failed into re-establishment
	StaleDrops        int             // media packets flushed at re-establishment
	KeyframeRequests  int             // PLI-style requests the player issued
	RecoveryMs        metrics.Sketch  // per-episode time for the target rate to return to ≥80% of its pre-outage value (ms)
	PostOutageQueueMs float64         // worst uplink queue delay within 5 s after an episode (ms)
	FaultEpisodes     []fault.Episode // the run's outage timeline

	// Repair-layer metrics (video workloads with Config.Repair enabled).
	NacksSent         int // NACK feedback packets the receiver emitted
	PacketsRepaired   int // media packets recovered by RTX before playout
	FramesRepaired    int // played frames completed by at least one RTX
	RepairLate        int // losses healed by the original arriving late
	RepairAbandoned   int // losses given up after the retry cap
	RepairDenied      int // retransmissions refused by the budget
	RepairCacheMisses int // NACKed packets the sender no longer held
	RtxBytes          int // retransmission bytes offered to the uplink
	// RepairBudgetAccrued is the cumulative byte allowance the budget
	// granted; RtxBytes ≤ RepairBudgetAccrued is the layer's hard bound.
	RepairBudgetAccrued float64
	// RTX plane counters from the uplink (conservation-checked in
	// internal/link; surfaced here for experiment shape checks).
	RtxSent, RtxDelivered, RtxLost, RtxStaleDrops, RtxOverflows int

	// The run's simulator cost: events scheduled and the most pending at
	// once. Both are pure functions of the config, so the cost pins of
	// internal/experiments compare them exactly; they are deliberately not
	// in MetricsRegistry, whose keys the checked-in baselines fix.
	SimEvents    uint64
	SimTimerPeak int
}

// BondPathStats is one bonded path's accounting: copies routed to it,
// delivered over it (probe duplicates included), lost by its links,
// suppressed at the receiver as duplicates, and how long its health
// monitor held it down.
type BondPathStats struct {
	Sent, Delivered, Lost int64
	Suppressed            int64
	DownMs                float64
	// Up is the path's health state at run end.
	Up bool
}

// GoodputMean returns the mean per-second goodput in Mbps.
func (r *Result) GoodputMean() float64 { return r.Goodput.Mean() }

// Test hooks, nil outside tests: sampleTap sees every sample a run records
// into one of its Result's sketches, and framesTap the player's frame list
// the FPS, PlaybackMs and SSIM sketches were built from. They let a test
// rebuild each sketch from the raw samples.
var (
	sampleTap func(d *metrics.Sketch, v float64)
	framesTap func(r *Result, frames []video.PlayedFrame)
)

// record adds one sample to one of a Result's sketches.
func record(d *metrics.Sketch, v float64) {
	d.Add(v)
	if sampleTap != nil {
		sampleTap(d, v)
	}
}

// MetricsRegistry renders the run's aggregates as an obs.Registry: counters
// for packet/frame/fault tallies, gauges for worst-case watermarks, and a
// copy of every distribution's sketch. Registries from the runs of one
// campaign merge with (*obs.Registry).Merge in run-index order.
func (r *Result) MetricsRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Add("packets_sent", int64(r.PacketsSent))
	reg.Add("packets_delivered", int64(r.PacketsDelivered))
	reg.Add("packets_lost", int64(r.PacketsLost))
	reg.Add("packets_overflow", int64(r.Overflows))
	reg.Add("aqm_drops", int64(r.AQMDrops))
	reg.Add("stale_drops", int64(r.StaleDrops))
	reg.Add("ctrl_packets_sent", int64(r.CtrlPacketsSent))
	reg.Add("ctrl_packets_delivered", int64(r.CtrlPacketsDelivered))
	reg.Add("ctrl_packets_lost", int64(r.CtrlPacketsLost))
	reg.Add("handovers", int64(len(r.Handovers)))
	reg.Add("rlfs", int64(r.RLFs))
	reg.Add("handover_failures", int64(r.HandoverFailures))
	reg.Add("outages", int64(r.Outages))
	reg.Add("frames_played", int64(r.FramesPlayed))
	reg.Add("frames_skipped", int64(r.FramesSkipped))
	reg.Add("stalls", int64(len(r.Stalls)))
	reg.Add("keyframe_requests", int64(r.KeyframeRequests))
	reg.Add("multipath_duplicates", int64(r.MultipathDuplicates))
	reg.Add("nacks_sent", int64(r.NacksSent))
	reg.Add("packets_repaired", int64(r.PacketsRepaired))
	reg.Add("frames_repaired", int64(r.FramesRepaired))
	reg.Add("repair_late", int64(r.RepairLate))
	reg.Add("repair_abandoned", int64(r.RepairAbandoned))
	reg.Add("repair_denied", int64(r.RepairDenied))
	reg.Add("repair_cache_misses", int64(r.RepairCacheMisses))
	reg.Add("rtx_bytes", int64(r.RtxBytes))
	reg.Add("rtx_sent", int64(r.RtxSent))
	reg.Add("rtx_delivered", int64(r.RtxDelivered))
	reg.Add("rtx_lost", int64(r.RtxLost))
	reg.Add("rtx_stale_drops", int64(r.RtxStaleDrops))
	reg.Add("rtx_overflows", int64(r.RtxOverflows))
	if len(r.BondPaths) > 0 {
		// Bond keys exist only for bonded runs so single-path campaign
		// metrics exports stay byte-identical to the calibrated baselines.
		reg.Add("bond_switches", int64(r.BondSwitches))
		reg.Add("bond_path_down_events", int64(r.BondPathDownEvents))
		reg.Add("bond_path_up_events", int64(r.BondPathUpEvents))
		reg.Add("bond_reorder_late", int64(r.BondReorderLate))
		reg.Add("bond_reorder_forced", int64(r.BondReorderForced))
		for i, p := range r.BondPaths {
			prefix := fmt.Sprintf("bond_path%d_", i)
			reg.Add(prefix+"sent", p.Sent)
			reg.Add(prefix+"delivered", p.Delivered)
			reg.Add(prefix+"lost", p.Lost)
			reg.Add(prefix+"suppressed", p.Suppressed)
			reg.SetGauge(prefix+"down_ms", p.DownMs)
		}
	}

	reg.SetGauge("post_outage_queue_ms_max", r.PostOutageQueueMs)
	reg.SetGauge("ramp_up_ms_max", float64(r.RampUpTo25)/float64(time.Millisecond))

	reg.LogHistogram("owd_ms").Merge(&r.OWDms)
	reg.LogHistogram("playback_ms").Merge(&r.PlaybackMs)
	reg.LogHistogram("jitter_ms").Merge(&r.JitterMs)
	reg.LogHistogram("rtcp_rtt_ms").Merge(&r.RTCPRTTms)
	reg.LogHistogram("rtt_ms").Merge(&r.RTTms)
	reg.LogHistogram("outage_ms").Merge(&r.OutageMs)
	reg.LogHistogram("recovery_ms").Merge(&r.RecoveryMs)
	reg.LogHistogram("goodput_mbps").Merge(&r.Goodput)
	reg.LogHistogram("ssim").Merge(&r.SSIM)
	reg.LogHistogram("fps").Merge(&r.FPS)
	return reg
}

// CampaignMetrics merges the per-run registries of a campaign in run-index
// order — the fixed fold order that makes the export byte-identical at any
// worker count.
func CampaignMetrics(results []*Result) *obs.Registry {
	out := obs.NewRegistry()
	for _, r := range results {
		if r == nil {
			continue
		}
		out.Merge(r.MetricsRegistry())
	}
	return out
}

// HandoverRate returns handovers per second.
func (r *Result) HandoverRate() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(len(r.Handovers)) / r.Duration.Seconds()
}
