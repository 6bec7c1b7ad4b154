package core

import (
	"encoding/json"
	"time"

	"rpivideo/internal/fault"
	"rpivideo/internal/metrics"
)

// Summary is the campaign-level aggregate of many runs' Results, built on
// metrics.Sketch instead of raw-sample concatenation: folding a run is
// O(samples of that run), but the retained state is O(buckets) — the
// footprint no longer grows with the run count, which is what lets a
// million-run campaign aggregate in constant memory (ROADMAP north star).
// Scalar counters sum, watermarks take the maximum, and the distributions
// answer the same quantile/CDF/fraction queries a merged Dist did, within
// metrics.SketchAlpha relative error (exactly, below the small-N cap).
//
// The zero value is ready to use; fold runs with AddResult in run-index
// order (Summarize and RunCampaignSummary do) so float accumulation order
// — and therefore every exported byte — is independent of scheduling.
type Summary struct {
	// Config is the first folded run's config. It does not travel on the
	// wire: the campaign spec, which both sides of a distributed campaign
	// hold, identifies the configuration, and Config carries fields (the
	// fleet CapacityShare hook in particular) that have no JSON form.
	Config   Config        `json:"-"`
	Runs     int           `json:"runs"`
	Duration time.Duration `json:"duration"`

	// Distribution aggregates, mirroring Result's Dist fields.
	OWDms      metrics.Sketch             `json:"owd_ms"`
	OWDByAlt   [altBuckets]metrics.Sketch `json:"owd_by_alt"`
	Goodput    metrics.Sketch             `json:"goodput"`
	FPS        metrics.Sketch             `json:"fps"`
	PlaybackMs metrics.Sketch             `json:"playback_ms"`
	SSIM       metrics.Sketch             `json:"ssim"`
	RTTms      metrics.Sketch             `json:"rtt_ms"`
	RTTByAlt   [altBuckets]metrics.Sketch `json:"rtt_by_alt"`
	JitterMs   metrics.Sketch             `json:"jitter_ms"`
	RTCPRTTms  metrics.Sketch             `json:"rtcp_rtt_ms"`
	OutageMs   metrics.Sketch             `json:"outage_ms"`
	RecoveryMs metrics.Sketch             `json:"recovery_ms"`

	// Packet accounting.
	PER                  float64 `json:"per"`
	PacketsSent          int     `json:"packets_sent"`
	PacketsDelivered     int     `json:"packets_delivered"`
	PacketsLost          int     `json:"packets_lost"`
	Overflows            int     `json:"overflows"`
	CtrlPacketsSent      int     `json:"ctrl_packets_sent"`
	CtrlPacketsDelivered int     `json:"ctrl_packets_delivered"`
	CtrlPacketsLost      int     `json:"ctrl_packets_lost"`

	// Radio events (counts; per-event detail stays in the per-run Results).
	Handovers        int `json:"handovers"`
	RLFs             int `json:"rlfs"`
	HandoverFailures int `json:"handover_failures"`

	// Video.
	Stalls        int     `json:"stalls"`
	StallsPerMin  float64 `json:"stalls_per_min"`
	FramesPlayed  int     `json:"frames_played"`
	FramesSkipped int     `json:"frames_skipped"`

	// Extensions.
	MultipathDuplicates int `json:"multipath_duplicates"`
	AQMDrops            int `json:"aqm_drops"`

	// Bonding (sums across runs; per-path detail collapses to totals so
	// the summary footprint stays O(1) in the run count).
	BondSwitches       int `json:"bond_switches"`
	BondPathDownEvents int `json:"bond_path_down_events"`
	BondPathUpEvents   int `json:"bond_path_up_events"`
	BondReorderLate    int `json:"bond_reorder_late"`
	BondReorderForced  int `json:"bond_reorder_forced"`
	// Per-path counters summed over runs AND paths: the campaign-level
	// overhead ratio is BondPathSent / (BondPathDelivered - BondPathSuppressed).
	BondPathSent       int64   `json:"bond_path_sent"`
	BondPathDelivered  int64   `json:"bond_path_delivered"`
	BondPathLost       int64   `json:"bond_path_lost"`
	BondPathSuppressed int64   `json:"bond_path_suppressed"`
	BondPathDownMs     float64 `json:"bond_path_down_ms"`

	// SCReAM internals.
	ScreamLosses       int `json:"scream_losses"`
	ScreamLossesInBand int `json:"scream_losses_in_band"`
	ScreamLossesWindow int `json:"scream_losses_window"`
	ScreamDiscards     int `json:"scream_discards"`

	// Faults.
	Outages           int             `json:"outages"`
	OutageTotal       time.Duration   `json:"outage_total"`
	StaleDrops        int             `json:"stale_drops"`
	KeyframeRequests  int             `json:"keyframe_requests"`
	PostOutageQueueMs float64         `json:"post_outage_queue_ms"`
	FaultEpisodes     []fault.Episode `json:"fault_episodes,omitempty"`

	// Repair.
	NacksSent           int     `json:"nacks_sent"`
	PacketsRepaired     int     `json:"packets_repaired"`
	FramesRepaired      int     `json:"frames_repaired"`
	RepairLate          int     `json:"repair_late"`
	RepairAbandoned     int     `json:"repair_abandoned"`
	RepairDenied        int     `json:"repair_denied"`
	RepairCacheMisses   int     `json:"repair_cache_misses"`
	RtxBytes            int     `json:"rtx_bytes"`
	RepairBudgetAccrued float64 `json:"repair_budget_accrued"`
	RtxSent             int     `json:"rtx_sent"`
	RtxDelivered        int     `json:"rtx_delivered"`
	RtxLost             int     `json:"rtx_lost"`
	RtxStaleDrops       int     `json:"rtx_stale_drops"`
	RtxOverflows        int     `json:"rtx_overflows"`

	// samplesFolded counts the raw distribution samples folded in — the
	// memory a Dist-based merge would have retained (×8 bytes).
	samplesFolded int64
}

// summaryWire is Summary without its methods, so the codec below can hand
// the struct to encoding/json's derived encoding without recursing.
type summaryWire Summary

// MarshalJSON renders the summary for the distributed-campaign shard
// stream: the tagged fields in declaration order, then samplesFolded so the
// aggregation-stats watermarks survive the hop. The output is canonical —
// a pure function of the folded runs and their fold grouping — so two
// summaries built from the same shards in the same order marshal to
// identical bytes (the sharded == serial merge-equivalence guarantee).
func (s *Summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		*summaryWire
		SamplesFolded int64 `json:"samples_folded"`
	}{(*summaryWire)(s), s.samplesFolded})
}

// UnmarshalJSON overwrites s with a summary marshaled by MarshalJSON.
// Config comes back zero; the consumer restores it from the campaign spec.
// Merging the result behaves exactly like merging the original.
func (s *Summary) UnmarshalJSON(data []byte) error {
	*s = Summary{}
	return json.Unmarshal(data, &struct {
		*summaryWire
		SamplesFolded *int64 `json:"samples_folded"`
	}{(*summaryWire)(s), &s.samplesFolded})
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

	fold := func(sk *metrics.Sketch, d *metrics.Dist) {
		sk.AddDist(d)
		s.samplesFolded += int64(d.N())
	}
	fold(&s.OWDms, &r.OWDms)
	for b := range r.OWDByAlt {
		fold(&s.OWDByAlt[b], &r.OWDByAlt[b])
	}
	fold(&s.Goodput, &r.Goodput)
	fold(&s.FPS, &r.FPS)
	fold(&s.PlaybackMs, &r.PlaybackMs)
	fold(&s.SSIM, &r.SSIM)
	fold(&s.RTTms, &r.RTTms)
	for b := range r.RTTByAlt {
		fold(&s.RTTByAlt[b], &r.RTTByAlt[b])
	}
	fold(&s.JitterMs, &r.JitterMs)
	fold(&s.RTCPRTTms, &r.RTCPRTTms)
	fold(&s.OutageMs, &r.OutageMs)
	fold(&s.RecoveryMs, &r.RecoveryMs)

	s.PacketsSent += r.PacketsSent
	s.PacketsDelivered += r.PacketsDelivered
	s.PacketsLost += r.PacketsLost
	s.Overflows += r.Overflows
	s.CtrlPacketsSent += r.CtrlPacketsSent
	s.CtrlPacketsDelivered += r.CtrlPacketsDelivered
	s.CtrlPacketsLost += r.CtrlPacketsLost
	if s.PacketsSent > 0 {
		s.PER = float64(s.PacketsLost) / float64(s.PacketsSent)
	}

	s.Handovers += len(r.Handovers)
	s.RLFs += r.RLFs
	s.HandoverFailures += r.HandoverFailures

	s.Stalls += len(r.Stalls)
	s.FramesPlayed += r.FramesPlayed
	s.FramesSkipped += r.FramesSkipped
	if s.Duration > 0 {
		s.StallsPerMin = float64(s.Stalls) / s.Duration.Minutes()
	}

	s.MultipathDuplicates += r.MultipathDuplicates
	s.AQMDrops += r.AQMDrops

	s.BondSwitches += r.BondSwitches
	s.BondPathDownEvents += r.BondPathDownEvents
	s.BondPathUpEvents += r.BondPathUpEvents
	s.BondReorderLate += r.BondReorderLate
	s.BondReorderForced += r.BondReorderForced
	for _, p := range r.BondPaths {
		s.BondPathSent += p.Sent
		s.BondPathDelivered += p.Delivered
		s.BondPathLost += p.Lost
		s.BondPathSuppressed += p.Suppressed
		s.BondPathDownMs += p.DownMs
	}

	s.ScreamLosses += r.ScreamLosses
	s.ScreamLossesInBand += r.ScreamLossesInBand
	s.ScreamLossesWindow += r.ScreamLossesWindow
	s.ScreamDiscards += r.ScreamDiscards

	s.Outages += r.Outages
	s.OutageTotal += r.OutageTotal
	s.StaleDrops += r.StaleDrops
	s.KeyframeRequests += r.KeyframeRequests
	if r.PostOutageQueueMs > s.PostOutageQueueMs {
		s.PostOutageQueueMs = r.PostOutageQueueMs
	}
	s.FaultEpisodes = append(s.FaultEpisodes, r.FaultEpisodes...)

	s.NacksSent += r.NacksSent
	s.PacketsRepaired += r.PacketsRepaired
	s.FramesRepaired += r.FramesRepaired
	s.RepairLate += r.RepairLate
	s.RepairAbandoned += r.RepairAbandoned
	s.RepairDenied += r.RepairDenied
	s.RepairCacheMisses += r.RepairCacheMisses
	s.RtxBytes += r.RtxBytes
	s.RepairBudgetAccrued += r.RepairBudgetAccrued
	s.RtxSent += r.RtxSent
	s.RtxDelivered += r.RtxDelivered
	s.RtxLost += r.RtxLost
	s.RtxStaleDrops += r.RtxStaleDrops
	s.RtxOverflows += r.RtxOverflows
}

// Merge folds another summary into s — the distributed-campaign
// counterpart of AddResult. Counters and durations sum, sketches merge,
// watermarks take the maximum, and the derived ratios (PER, StallsPerMin)
// are recomputed from the merged totals. Called in run-index order over
// single-run summaries it reproduces, integer-for-integer and — because
// the float folds group per run on both sides — byte-for-byte, the
// summary a serial merge of the same shards would build. s.Config keeps
// the receiver's (first non-empty) config.
func (s *Summary) Merge(o *Summary) {
	if o == nil || o.Runs == 0 {
		return
	}
	if s.Runs == 0 {
		s.Config = o.Config
	}
	s.Runs += o.Runs
	s.Duration += o.Duration

	s.OWDms.Merge(&o.OWDms)
	for b := range o.OWDByAlt {
		s.OWDByAlt[b].Merge(&o.OWDByAlt[b])
	}
	s.Goodput.Merge(&o.Goodput)
	s.FPS.Merge(&o.FPS)
	s.PlaybackMs.Merge(&o.PlaybackMs)
	s.SSIM.Merge(&o.SSIM)
	s.RTTms.Merge(&o.RTTms)
	for b := range o.RTTByAlt {
		s.RTTByAlt[b].Merge(&o.RTTByAlt[b])
	}
	s.JitterMs.Merge(&o.JitterMs)
	s.RTCPRTTms.Merge(&o.RTCPRTTms)
	s.OutageMs.Merge(&o.OutageMs)
	s.RecoveryMs.Merge(&o.RecoveryMs)

	s.PacketsSent += o.PacketsSent
	s.PacketsDelivered += o.PacketsDelivered
	s.PacketsLost += o.PacketsLost
	s.Overflows += o.Overflows
	s.CtrlPacketsSent += o.CtrlPacketsSent
	s.CtrlPacketsDelivered += o.CtrlPacketsDelivered
	s.CtrlPacketsLost += o.CtrlPacketsLost
	if s.PacketsSent > 0 {
		s.PER = float64(s.PacketsLost) / float64(s.PacketsSent)
	}

	s.Handovers += o.Handovers
	s.RLFs += o.RLFs
	s.HandoverFailures += o.HandoverFailures

	s.Stalls += o.Stalls
	s.FramesPlayed += o.FramesPlayed
	s.FramesSkipped += o.FramesSkipped
	if s.Duration > 0 {
		s.StallsPerMin = float64(s.Stalls) / s.Duration.Minutes()
	}

	s.MultipathDuplicates += o.MultipathDuplicates
	s.AQMDrops += o.AQMDrops

	s.BondSwitches += o.BondSwitches
	s.BondPathDownEvents += o.BondPathDownEvents
	s.BondPathUpEvents += o.BondPathUpEvents
	s.BondReorderLate += o.BondReorderLate
	s.BondReorderForced += o.BondReorderForced
	s.BondPathSent += o.BondPathSent
	s.BondPathDelivered += o.BondPathDelivered
	s.BondPathLost += o.BondPathLost
	s.BondPathSuppressed += o.BondPathSuppressed
	s.BondPathDownMs += o.BondPathDownMs

	s.ScreamLosses += o.ScreamLosses
	s.ScreamLossesInBand += o.ScreamLossesInBand
	s.ScreamLossesWindow += o.ScreamLossesWindow
	s.ScreamDiscards += o.ScreamDiscards

	s.Outages += o.Outages
	s.OutageTotal += o.OutageTotal
	s.StaleDrops += o.StaleDrops
	s.KeyframeRequests += o.KeyframeRequests
	if o.PostOutageQueueMs > s.PostOutageQueueMs {
		s.PostOutageQueueMs = o.PostOutageQueueMs
	}
	s.FaultEpisodes = append(s.FaultEpisodes, o.FaultEpisodes...)

	s.NacksSent += o.NacksSent
	s.PacketsRepaired += o.PacketsRepaired
	s.FramesRepaired += o.FramesRepaired
	s.RepairLate += o.RepairLate
	s.RepairAbandoned += o.RepairAbandoned
	s.RepairDenied += o.RepairDenied
	s.RepairCacheMisses += o.RepairCacheMisses
	s.RtxBytes += o.RtxBytes
	s.RepairBudgetAccrued += o.RepairBudgetAccrued
	s.RtxSent += o.RtxSent
	s.RtxDelivered += o.RtxDelivered
	s.RtxLost += o.RtxLost
	s.RtxStaleDrops += o.RtxStaleDrops
	s.RtxOverflows += o.RtxOverflows

	s.samplesFolded += o.samplesFolded
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

// SamplesFolded returns how many raw distribution samples have been folded
// into the summary — the count a Dist-based merge would retain.
func (s *Summary) SamplesFolded() int64 { return s.samplesFolded }

// RetainedBytes estimates the summary's distribution payload: the sum of
// its sketches' retained bytes.
func (s *Summary) RetainedBytes() int {
	total := s.OWDms.RetainedBytes() + s.Goodput.RetainedBytes() +
		s.FPS.RetainedBytes() + s.PlaybackMs.RetainedBytes() +
		s.SSIM.RetainedBytes() + s.RTTms.RetainedBytes() +
		s.JitterMs.RetainedBytes() + s.RTCPRTTms.RetainedBytes() +
		s.OutageMs.RetainedBytes() + s.RecoveryMs.RetainedBytes()
	for b := range s.OWDByAlt {
		total += s.OWDByAlt[b].RetainedBytes() + s.RTTByAlt[b].RetainedBytes()
	}
	return total
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

// RunCampaignSummary executes a campaign like RunCampaignWithOptions but
// folds each run into a Summary as soon as its turn in run-index order
// comes, discarding the per-run Result immediately: peak memory holds the
// summary, the in-flight runs, and whatever completed out of order — not
// the whole campaign. The fold order is the run index regardless of worker
// count, so the summary (and anything exported from it) is byte-identical
// at any parallelism. Per-run panics land in the error slice, indexed by
// run, with that run simply missing from the aggregate.
func RunCampaignSummary(cfg Config, runs int, opts CampaignOptions) (*Summary, []error) {
	sum := &Summary{}
	errs := opts.run(cfg, runs, func(_ int, r *Result) { sum.AddResult(r) })
	return sum, errs
}
