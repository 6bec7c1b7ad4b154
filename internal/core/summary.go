package core

import (
	"time"

	"rpivideo/internal/fault"
	"rpivideo/internal/metrics"
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

	// Distribution aggregates, mirroring Result's sketches.
	OWDms      metrics.Sketch
	OWDByAlt   [altBuckets]metrics.Sketch
	Goodput    metrics.Sketch
	FPS        metrics.Sketch
	PlaybackMs metrics.Sketch
	SSIM       metrics.Sketch
	RTTms      metrics.Sketch
	RTTByAlt   [altBuckets]metrics.Sketch
	JitterMs   metrics.Sketch
	RTCPRTTms  metrics.Sketch
	OutageMs   metrics.Sketch
	RecoveryMs metrics.Sketch

	// Packet accounting.
	PER                  float64
	PacketsSent          int
	PacketsDelivered     int
	PacketsLost          int
	Overflows            int
	CtrlPacketsSent      int
	CtrlPacketsDelivered int
	CtrlPacketsLost      int

	// Radio events (counts; per-event detail stays in the per-run Results).
	Handovers        int
	RLFs             int
	HandoverFailures int

	// Video.
	Stalls        int
	StallsPerMin  float64
	FramesPlayed  int
	FramesSkipped int

	// Extensions.
	MultipathDuplicates int
	AQMDrops            int

	// Bonding (sums across runs; per-path detail collapses to totals so
	// the summary footprint stays O(1) in the run count).
	BondSwitches       int
	BondPathDownEvents int
	BondPathUpEvents   int
	BondReorderLate    int
	BondReorderForced  int
	// Per-path counters summed over runs AND paths: the campaign-level
	// overhead ratio is BondPathSent / (BondPathDelivered - BondPathSuppressed).
	BondPathSent       int64
	BondPathDelivered  int64
	BondPathLost       int64
	BondPathSuppressed int64
	BondPathDownMs     float64

	// SCReAM internals.
	ScreamLosses       int
	ScreamLossesInBand int
	ScreamLossesWindow int
	ScreamDiscards     int

	// Faults.
	Outages           int
	OutageTotal       time.Duration
	StaleDrops        int
	KeyframeRequests  int
	PostOutageQueueMs float64
	FaultEpisodes     []fault.Episode

	// Repair.
	NacksSent           int
	PacketsRepaired     int
	FramesRepaired      int
	RepairLate          int
	RepairAbandoned     int
	RepairDenied        int
	RepairCacheMisses   int
	RtxBytes            int
	RepairBudgetAccrued float64
	RtxSent             int
	RtxDelivered        int
	RtxLost             int
	RtxStaleDrops       int
	RtxOverflows        int
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

	s.OWDms.Merge(&r.OWDms)
	for b := range r.OWDByAlt {
		s.OWDByAlt[b].Merge(&r.OWDByAlt[b])
	}
	s.Goodput.Merge(&r.Goodput)
	s.FPS.Merge(&r.FPS)
	s.PlaybackMs.Merge(&r.PlaybackMs)
	s.SSIM.Merge(&r.SSIM)
	s.RTTms.Merge(&r.RTTms)
	for b := range r.RTTByAlt {
		s.RTTByAlt[b].Merge(&r.RTTByAlt[b])
	}
	s.JitterMs.Merge(&r.JitterMs)
	s.RTCPRTTms.Merge(&r.RTCPRTTms)
	s.OutageMs.Merge(&r.OutageMs)
	s.RecoveryMs.Merge(&r.RecoveryMs)

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
