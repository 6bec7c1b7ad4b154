package core

import (
	"fmt"
	"time"

	"rpivideo/internal/fault"
	"rpivideo/internal/obs"
)

// Summary is the campaign-level aggregate of many runs' Results: scalar
// counters sum, watermarks take the maximum, and each distribution is the
// merge of the runs' sketches. Folding a run is O(buckets of that run) and
// the retained state is O(buckets) — the footprint does not grow with the
// run count, which is what lets a million-run campaign aggregate in
// constant memory. The distributions answer quantile/CDF/fraction queries
// within metrics.SketchAlpha relative error (exactly, below the small-N
// cap).
//
// The zero value is ready to use; fold runs with AddResult in run-index
// order (Summarize does, and so does a RunCampaignFold whose fold is
// AddResult) so float accumulation order — and therefore every exported
// byte — is independent of scheduling.
type Summary struct {
	// Config is the first folded run's config.
	Config   Config
	Runs     int
	Duration time.Duration
	Tally

	// What is not a plain sum of the runs' Tally: the two rates, the
	// per-run event lists as counts, the bonded paths by index, the
	// watermarks and the outage timelines end to end.
	PER               float64
	StallsPerMin      float64
	Handovers         int
	Stalls            int
	BondPaths         []BondPathStats // counts summed, DownMs the worst run's, Up the last run's
	RampUpMax         time.Duration   // the slowest run's RampUpTo25
	PostOutageQueueMs float64         // the worst run's
	FaultEpisodes     []fault.Episode
}

// AddResult folds one run into the summary. Call in run-index order for
// byte-stable downstream output.
func (s *Summary) AddResult(r *Result) {
	if r == nil {
		return
	}
	if s.Runs == 0 {
		s.Config = r.Config
	}
	s.Runs++
	s.Duration += r.Duration
	s.Tally.add(&r.Tally)
	if s.PacketsSent > 0 {
		s.PER = float64(s.PacketsLost) / float64(s.PacketsSent)
	}
	s.Handovers += len(r.Handovers)
	s.Stalls += len(r.Stalls)
	if s.Duration > 0 {
		s.StallsPerMin = float64(s.Stalls) / s.Duration.Minutes()
	}
	for i, p := range r.BondPaths {
		if i == len(s.BondPaths) {
			s.BondPaths = append(s.BondPaths, BondPathStats{})
		}
		sp := &s.BondPaths[i]
		sp.Sent += p.Sent
		sp.Delivered += p.Delivered
		sp.Lost += p.Lost
		sp.Suppressed += p.Suppressed
		sp.DownMs = max(sp.DownMs, p.DownMs)
		sp.Up = p.Up
	}
	s.RampUpMax = max(s.RampUpMax, r.RampUpTo25)
	s.PostOutageQueueMs = max(s.PostOutageQueueMs, r.PostOutageQueueMs)
	s.FaultEpisodes = append(s.FaultEpisodes, r.FaultEpisodes...)
}

// MetricsRegistry renders the campaign as an obs.Registry: counters for the
// packet/frame/fault tallies, gauges for the worst-case watermarks, and a
// copy of every distribution's sketch. Counters sum and gauges take the
// maximum here as in (*obs.Registry).Merge, so this is the run-index-order
// merge of the runs' own registries, which is what
// experiments.FoldDistShards rebuilds from shards. An empty campaign
// renders an empty registry.
func (s *Summary) MetricsRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	if s.Runs == 0 {
		return reg
	}
	reg.Add("packets_sent", int64(s.PacketsSent))
	reg.Add("packets_delivered", int64(s.PacketsDelivered))
	reg.Add("packets_lost", int64(s.PacketsLost))
	reg.Add("packets_overflow", int64(s.Overflows))
	reg.Add("aqm_drops", int64(s.AQMDrops))
	reg.Add("stale_drops", int64(s.StaleDrops))
	reg.Add("ctrl_packets_sent", int64(s.CtrlPacketsSent))
	reg.Add("ctrl_packets_delivered", int64(s.CtrlPacketsDelivered))
	reg.Add("ctrl_packets_lost", int64(s.CtrlPacketsLost))
	reg.Add("handovers", int64(s.Handovers))
	reg.Add("rlfs", int64(s.RLFs))
	reg.Add("handover_failures", int64(s.HandoverFailures))
	reg.Add("outages", int64(s.Outages))
	reg.Add("frames_played", int64(s.FramesPlayed))
	reg.Add("frames_skipped", int64(s.FramesSkipped))
	reg.Add("stalls", int64(s.Stalls))
	reg.Add("keyframe_requests", int64(s.KeyframeRequests))
	reg.Add("multipath_duplicates", int64(s.MultipathDuplicates))
	reg.Add("nacks_sent", int64(s.NacksSent))
	reg.Add("packets_repaired", int64(s.PacketsRepaired))
	reg.Add("frames_repaired", int64(s.FramesRepaired))
	reg.Add("repair_late", int64(s.RepairLate))
	reg.Add("repair_abandoned", int64(s.RepairAbandoned))
	reg.Add("repair_denied", int64(s.RepairDenied))
	reg.Add("repair_cache_misses", int64(s.RepairCacheMisses))
	reg.Add("rtx_bytes", int64(s.RtxBytes))
	reg.Add("rtx_sent", int64(s.RtxSent))
	reg.Add("rtx_delivered", int64(s.RtxDelivered))
	reg.Add("rtx_lost", int64(s.RtxLost))
	reg.Add("rtx_stale_drops", int64(s.RtxStaleDrops))
	reg.Add("rtx_overflows", int64(s.RtxOverflows))
	if len(s.BondPaths) > 0 {
		// Bond keys exist only for bonded campaigns so single-path campaign
		// metrics exports stay byte-identical to the calibrated baselines.
		reg.Add("bond_switches", int64(s.BondSwitches))
		reg.Add("bond_path_down_events", int64(s.BondPathDownEvents))
		reg.Add("bond_path_up_events", int64(s.BondPathUpEvents))
		reg.Add("bond_reorder_late", int64(s.BondReorderLate))
		reg.Add("bond_reorder_forced", int64(s.BondReorderForced))
		for i, p := range s.BondPaths {
			prefix := fmt.Sprintf("bond_path%d_", i)
			reg.Add(prefix+"sent", p.Sent)
			reg.Add(prefix+"delivered", p.Delivered)
			reg.Add(prefix+"lost", p.Lost)
			reg.Add(prefix+"suppressed", p.Suppressed)
			reg.SetGauge(prefix+"down_ms", p.DownMs)
		}
	}

	reg.SetGauge("post_outage_queue_ms_max", s.PostOutageQueueMs)
	reg.SetGauge("ramp_up_ms_max", float64(s.RampUpMax)/float64(time.Millisecond))

	reg.LogHistogram("owd_ms").Merge(&s.OWDms)
	reg.LogHistogram("playback_ms").Merge(&s.PlaybackMs)
	reg.LogHistogram("jitter_ms").Merge(&s.JitterMs)
	reg.LogHistogram("rtcp_rtt_ms").Merge(&s.RTCPRTTms)
	reg.LogHistogram("rtt_ms").Merge(&s.RTTms)
	reg.LogHistogram("outage_ms").Merge(&s.OutageMs)
	reg.LogHistogram("recovery_ms").Merge(&s.RecoveryMs)
	reg.LogHistogram("goodput_mbps").Merge(&s.Goodput)
	reg.LogHistogram("ssim").Merge(&s.SSIM)
	reg.LogHistogram("fps").Merge(&s.FPS)
	return reg
}

// CampaignMetrics renders a campaign's registry from its Summary; failed
// (nil) runs are skipped. The runs fold in slice order, the fixed order that
// makes the export byte-identical at any worker count.
func CampaignMetrics(results []*Result) *obs.Registry {
	return Summarize(results).MetricsRegistry()
}

// GoodputMean returns the mean per-second goodput in Mbps.
func (s *Summary) GoodputMean() float64 { return s.Goodput.Mean() }

// HandoverRate returns handovers per second of aggregated flight time.
func (s *Summary) HandoverRate() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Handovers) / s.Duration.Seconds()
}

// Summarize folds per-run results (in slice order, which campaign engines
// produce in run-index order) into a Summary. Nil results — failed runs —
// are skipped.
func Summarize(results []*Result) *Summary {
	s := &Summary{}
	for _, r := range results {
		s.AddResult(r)
	}
	return s
}
