package core

import "rpivideo/internal/metrics"

// mergeRef is the sample-retaining campaign fold: Result + Result, every
// distribution keeping every sample of every run. It is the reference
// Summary.AddResult is held to (TestSummaryMatchesMerge). The scalars sum
// into a Result; the distributions come back as exact Dists by sketch name
// (see ResultSketches), built from the raw samples tp saw the runs record.
func mergeRef(results []*Result, tp *Tap) (*Result, map[string]*metrics.Dist) {
	dists := map[string]*metrics.Dist{}
	if len(results) == 0 {
		return &Result{}, dists
	}
	out := &Result{Config: results[0].Config}
	var lostSum, sentSum int
	for _, r := range results {
		for name, d := range ResultSketches(r) {
			if dists[name] == nil {
				dists[name] = &metrics.Dist{}
			}
			for _, v := range tp.Samples(r, d) {
				dists[name].Add(v)
			}
		}
		out.Duration += r.Duration
		out.Handovers = append(out.Handovers, r.Handovers...)
		out.PacketsSent += r.PacketsSent
		out.PacketsDelivered += r.PacketsDelivered
		out.PacketsLost += r.PacketsLost
		out.Overflows += r.Overflows
		out.CtrlPacketsSent += r.CtrlPacketsSent
		out.CtrlPacketsDelivered += r.CtrlPacketsDelivered
		out.CtrlPacketsLost += r.CtrlPacketsLost
		lostSum += r.PacketsLost
		sentSum += r.PacketsSent
		out.Stalls = append(out.Stalls, r.Stalls...)
		out.FramesPlayed += r.FramesPlayed
		out.FramesSkipped += r.FramesSkipped
		out.MultipathDuplicates += r.MultipathDuplicates
		if r.BondPolicy != "" {
			out.BondPolicy = r.BondPolicy
		}
		out.BondSwitches += r.BondSwitches
		out.BondPathDownEvents += r.BondPathDownEvents
		out.BondPathUpEvents += r.BondPathUpEvents
		out.BondReorderLate += r.BondReorderLate
		out.BondReorderForced += r.BondReorderForced
		for i, p := range r.BondPaths {
			for len(out.BondPaths) <= i {
				out.BondPaths = append(out.BondPaths, BondPathStats{})
			}
			o := &out.BondPaths[i]
			o.Sent += p.Sent
			o.Delivered += p.Delivered
			o.Lost += p.Lost
			o.Suppressed += p.Suppressed
			o.DownMs += p.DownMs
			o.Up = p.Up
		}
		out.AQMDrops += r.AQMDrops
		out.ScreamLosses += r.ScreamLosses
		out.ScreamLossesInBand += r.ScreamLossesInBand
		out.ScreamLossesWindow += r.ScreamLossesWindow
		out.ScreamDiscards += r.ScreamDiscards
		out.Outages += r.Outages
		out.OutageTotal += r.OutageTotal
		out.RLFs += r.RLFs
		out.HandoverFailures += r.HandoverFailures
		out.StaleDrops += r.StaleDrops
		out.KeyframeRequests += r.KeyframeRequests
		if r.PostOutageQueueMs > out.PostOutageQueueMs {
			out.PostOutageQueueMs = r.PostOutageQueueMs
		}
		out.FaultEpisodes = append(out.FaultEpisodes, r.FaultEpisodes...)
		out.NacksSent += r.NacksSent
		out.PacketsRepaired += r.PacketsRepaired
		out.FramesRepaired += r.FramesRepaired
		out.RepairLate += r.RepairLate
		out.RepairAbandoned += r.RepairAbandoned
		out.RepairDenied += r.RepairDenied
		out.RepairCacheMisses += r.RepairCacheMisses
		out.RtxBytes += r.RtxBytes
		out.RepairBudgetAccrued += r.RepairBudgetAccrued
		out.RtxSent += r.RtxSent
		out.RtxDelivered += r.RtxDelivered
		out.RtxLost += r.RtxLost
		out.RtxStaleDrops += r.RtxStaleDrops
		out.RtxOverflows += r.RtxOverflows
	}
	if sentSum > 0 {
		out.PER = float64(lostSum) / float64(sentSum)
	}
	if out.Duration > 0 {
		out.StallsPerMin = float64(len(out.Stalls)) / out.Duration.Minutes()
	}
	return out, dists
}
