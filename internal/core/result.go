package core

import (
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
	"rpivideo/internal/metrics"
	"rpivideo/internal/obs"
	"rpivideo/internal/rtp"
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
	// TelemetryFrameDelay is each played frame's encode-to-play latency (ms):
	// PlaybackMs, merged in when the run ends.
	TelemetryFrameDelay = "frame_delay_ms"
	// TelemetryQueueDelay is each served uplink packet's queueing delay (ms).
	TelemetryQueueDelay = "queue_delay_ms"
	// TelemetryNackRTT is each retransmission heal's loss-to-repair time (ms).
	TelemetryNackRTT = "nack_rtt_ms"
	// TelemetryHandoverInterruption is each committed handover's execution
	// time (ms): one sample per Handovers[i].HET, added when the run ends.
	TelemetryHandoverInterruption = "handover_interruption_ms"
)

// Result aggregates one run's measurements: the Tally a campaign adds up,
// and what describes this run alone.
type Result struct {
	Config   Config
	Duration time.Duration
	Tally

	PER       float64      // radio loss fraction
	Handovers []cell.Event // committed handovers, with their execution times

	// Video (video workloads only).
	Stalls       []video.Stall
	StallsPerMin float64

	// Bonding (bonded runs only; see internal/bond).
	BondPolicy string          // scheduling policy name
	BondPaths  []BondPathStats // per-path accounting, path 0 = primary

	// Ramp-up: first time the controller target reached 99% of MaxRate
	// (zero if never).
	RampUpTo25 time.Duration

	// Fault injection (video workloads with Config.Faults armed).
	PostOutageQueueMs float64         // worst uplink queue delay within 5 s after an episode (ms)
	FaultEpisodes     []fault.Episode // the run's outage timeline

	// Trace holds the run's event trace when Config.Trace is set; nil
	// otherwise. Runs are single-goroutine, so the trace is complete and
	// time-ordered when Run returns.
	Trace *obs.Tracer

	// Telemetry holds the run's live-ops log histograms (frame delay, queue
	// delay, NACK RTT, handover interruption). It is kept separate from
	// MetricsRegistry(): the campaign surface is pinned by checked-in
	// baselines and the regression gate flags any new metric as drift, while
	// this registry feeds only the live /metrics exposition. It is never in
	// a shard (shards serialize MetricsRegistry only), so adding it cannot
	// perturb the sharded fold's byte-identity.
	Telemetry *obs.Registry

	// The run's simulator cost: events scheduled and the most pending at
	// once. Both are pure functions of the config, so the cost pins of
	// internal/experiments compare them exactly; they are deliberately not
	// in MetricsRegistry, whose keys the checked-in baselines fix.
	SimEvents    uint64
	SimTimerPeak int
}

// Tally is what a campaign adds up over its runs: every distribution (a
// metrics.Sketch, filled as its samples arrive) and every count. Result and
// Summary both embed it, and add is the one fold.
type Tally struct {
	// Network level.
	OWDms                                                 metrics.Sketch // one-way delay of delivered media packets (ms)
	OWDByAlt                                              [altBuckets]metrics.Sketch
	Goodput                                               metrics.Sketch // per-second delivered Mbps
	PacketsSent, PacketsDelivered, PacketsLost, Overflows int

	// Control-plane (RTCP sender report) counters on the primary uplink,
	// kept apart from the media counters so PER stays media-only.
	// CtrlPacketsLost counts drops for any reason. The media counters
	// (Packets*, Overflows, AQMDrops, StaleDrops) sum every uplink path.
	CtrlPacketsSent, CtrlPacketsDelivered, CtrlPacketsLost int

	// Video metrics (video workloads only).
	FPS           metrics.Sketch // frames played per second samples
	PlaybackMs    metrics.Sketch // playback latency per played frame (ms)
	SSIM          metrics.Sketch // per-frame SSIM incl. zeros for skipped
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
	// Suppressed counters in Result.BondPaths.
	MultipathDuplicates int

	// Bonding: active-path changes (failover/cheapest), health-monitor
	// transitions past the hysteresis, and reorder-buffer outcomes
	// (striping policies only): packets dropped as too late, and forced
	// releases (deadline or cap) past a gap.
	BondSwitches                         int
	BondPathDownEvents, BondPathUpEvents int
	BondReorderLate                      int
	BondReorderForced                    int
	// AQMDrops counts CoDel head drops on the uplink (AQM runs only).
	AQMDrops int

	// SCReAM-internal counters (zero for other controllers).
	ScreamLosses       int
	ScreamLossesInBand int
	ScreamLossesWindow int
	ScreamDiscards     int

	// Fault-injection metrics (video workloads with Config.Faults armed).
	Outages          int            // realized outage episodes
	OutageTotal      time.Duration  // summed episode length
	OutageMs         metrics.Sketch // per-episode length (ms)
	RLFs             int            // T310-expiry radio-link failures
	HandoverFailures int            // handovers failed into re-establishment
	StaleDrops       int            // media packets flushed at re-establishment
	KeyframeRequests int            // PLI-style requests the player issued
	RecoveryMs       metrics.Sketch // per-episode time for the target rate to return to ≥80% of its pre-outage value (ms)

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
	// RTX plane counters from the primary uplink's RTX ledger (RtxLost is
	// radio loss; conservation-checked in internal/link; surfaced here for
	// experiment shape checks).
	RtxSent, RtxDelivered, RtxLost, RtxStaleDrops, RtxOverflows int
}

// add folds o into t: distributions merge, counts sum.
func (t *Tally) add(o *Tally) {
	t.OWDms.Merge(&o.OWDms)
	for b := range o.OWDByAlt {
		t.OWDByAlt[b].Merge(&o.OWDByAlt[b])
	}
	t.Goodput.Merge(&o.Goodput)
	t.FPS.Merge(&o.FPS)
	t.PlaybackMs.Merge(&o.PlaybackMs)
	t.SSIM.Merge(&o.SSIM)
	t.RTTms.Merge(&o.RTTms)
	for b := range o.RTTByAlt {
		t.RTTByAlt[b].Merge(&o.RTTByAlt[b])
	}
	t.JitterMs.Merge(&o.JitterMs)
	t.RTCPRTTms.Merge(&o.RTCPRTTms)
	t.OutageMs.Merge(&o.OutageMs)
	t.RecoveryMs.Merge(&o.RecoveryMs)

	t.PacketsSent += o.PacketsSent
	t.PacketsDelivered += o.PacketsDelivered
	t.PacketsLost += o.PacketsLost
	t.Overflows += o.Overflows
	t.CtrlPacketsSent += o.CtrlPacketsSent
	t.CtrlPacketsDelivered += o.CtrlPacketsDelivered
	t.CtrlPacketsLost += o.CtrlPacketsLost
	t.FramesPlayed += o.FramesPlayed
	t.FramesSkipped += o.FramesSkipped
	t.MultipathDuplicates += o.MultipathDuplicates
	t.BondSwitches += o.BondSwitches
	t.BondPathDownEvents += o.BondPathDownEvents
	t.BondPathUpEvents += o.BondPathUpEvents
	t.BondReorderLate += o.BondReorderLate
	t.BondReorderForced += o.BondReorderForced
	t.AQMDrops += o.AQMDrops
	t.ScreamLosses += o.ScreamLosses
	t.ScreamLossesInBand += o.ScreamLossesInBand
	t.ScreamLossesWindow += o.ScreamLossesWindow
	t.ScreamDiscards += o.ScreamDiscards
	t.Outages += o.Outages
	t.OutageTotal += o.OutageTotal
	t.RLFs += o.RLFs
	t.HandoverFailures += o.HandoverFailures
	t.StaleDrops += o.StaleDrops
	t.KeyframeRequests += o.KeyframeRequests
	t.NacksSent += o.NacksSent
	t.PacketsRepaired += o.PacketsRepaired
	t.FramesRepaired += o.FramesRepaired
	t.RepairLate += o.RepairLate
	t.RepairAbandoned += o.RepairAbandoned
	t.RepairDenied += o.RepairDenied
	t.RepairCacheMisses += o.RepairCacheMisses
	t.RtxBytes += o.RtxBytes
	t.RepairBudgetAccrued += o.RepairBudgetAccrued
	t.RtxSent += o.RtxSent
	t.RtxDelivered += o.RtxDelivered
	t.RtxLost += o.RtxLost
	t.RtxStaleDrops += o.RtxStaleDrops
	t.RtxOverflows += o.RtxOverflows
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
// rebuild each sketch from the raw samples. poolTap sees a video run's
// packet pool once the run has ended: its Live and PeakLive count that run's
// packets alone, while its Slots include those inherited from the runs
// before it on the same worker (runBuffers). datagramTap sees a video run's
// two datagram pools once the run has ended, with the datagrams each one's
// link still carries: the sender reports queued or in flight on the uplink,
// the feedback on the downlink.
var (
	sampleTap   func(d *metrics.Sketch, v float64)
	framesTap   func(r *Result, frames []video.PlayedFrame)
	poolTap     func(r *Result, pool rtp.PoolStats)
	datagramTap func(r *Result, snd, rcv rtp.PoolStats, upCarried, downCarried int)
)

// record adds one sample to one of a Result's sketches.
func record(d *metrics.Sketch, v float64) {
	d.Add(v)
	if sampleTap != nil {
		sampleTap(d, v)
	}
}

// MetricsRegistry renders the run's aggregates as an obs.Registry: the
// registry of a one-run Summary. The registries of a campaign's runs,
// merged with (*obs.Registry).Merge in run-index order, equal the campaign
// Summary's.
func (r *Result) MetricsRegistry() *obs.Registry {
	var s Summary
	s.AddResult(r)
	return s.MetricsRegistry()
}

// HandoverRate returns handovers per second.
func (r *Result) HandoverRate() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(len(r.Handovers)) / r.Duration.Seconds()
}
