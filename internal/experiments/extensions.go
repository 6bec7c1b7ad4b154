package experiments

import (
	"rpivideo/internal/bond"
	"rpivideo/internal/cell"
	"rpivideo/internal/core"
)

// ExtDAPS evaluates the Dual Active Protocol Stack handover (3GPP Rel-16)
// that §5 proposes as a fix for the pre-handover latency spikes: with
// make-before-break link establishment the execution gap disappears and the
// degradation around handovers is masked by the second leg.
func ExtDAPS(o Options) *Report {
	o.defaults()
	r := &Report{ID: "ext-daps", Title: "DAPS make-before-break handover (§5 extension)"}
	base := core.Config{Env: cell.Urban, Air: true, CC: core.CCStatic, Seed: o.Seed}
	daps := base
	daps.DAPS = true
	plain := campaign(base, o)
	withDAPS := campaign(daps, o)
	r.row("break-before-make: <300ms %.0f%%  owd p99 %4.0f ms  stalls %.2f/min",
		100*plain.PlaybackMs.FracBelow(300), plain.OWDms.Quantile(0.99), plain.StallsPerMin)
	r.row("DAPS:              <300ms %.0f%%  owd p99 %4.0f ms  stalls %.2f/min",
		100*withDAPS.PlaybackMs.FracBelow(300), withDAPS.OWDms.Quantile(0.99), withDAPS.StallsPerMin)
	r.check("DAPS removes the latency spikes", withDAPS.OWDms.Quantile(0.99) < 0.7*plain.OWDms.Quantile(0.99),
		"p99 %.0f → %.0f ms", plain.OWDms.Quantile(0.99), withDAPS.OWDms.Quantile(0.99))
	r.check("DAPS improves the 300 ms target",
		withDAPS.PlaybackMs.FracBelow(300) > plain.PlaybackMs.FracBelow(300),
		"%.0f%% → %.0f%%", 100*plain.PlaybackMs.FracBelow(300), 100*withDAPS.PlaybackMs.FracBelow(300))
	r.check("handover frequency unchanged (same radio)",
		withDAPS.HandoverRate() > 0.5*plain.HandoverRate() && withDAPS.HandoverRate() < 2*plain.HandoverRate(),
		"%.3f vs %.3f HO/s", withDAPS.HandoverRate(), plain.HandoverRate())
	return r
}

// ExtAQM evaluates the §5 bufferbloat mitigation: a CoDel queue manager on
// the bottleneck. In the queueing-dominated regime (rural ground, a static
// rate near capacity) it halves the delay tail and removes the overflow-
// induced frame loss; radio-stall spikes in the air are not queue-induced
// and remain.
func ExtAQM(o Options) *Report {
	o.defaults()
	r := &Report{ID: "ext-aqm", Title: "CoDel on the bottleneck buffer (§5 extension)"}
	base := core.Config{Env: cell.Rural, Air: false, CC: core.CCStatic, StaticRate: 10.5e6, Seed: o.Seed}
	aqm := base
	aqm.AQM = true
	plain := campaign(base, o)
	withAQM := campaign(aqm, o)
	r.row("deep FIFO: owd p95 %4.0f ms  p99 %4.0f ms  stalls %.2f/min",
		plain.OWDms.Quantile(0.95), plain.OWDms.Quantile(0.99), plain.StallsPerMin)
	r.row("CoDel:     owd p95 %4.0f ms  p99 %4.0f ms  stalls %.2f/min  aqm drops %d",
		withAQM.OWDms.Quantile(0.95), withAQM.OWDms.Quantile(0.99), withAQM.StallsPerMin, withAQM.AQMDrops)
	r.check("CoDel cuts the standing-queue delay", withAQM.OWDms.Quantile(0.95) < 0.75*plain.OWDms.Quantile(0.95),
		"p95 %.0f → %.0f ms (p99 %.0f → %.0f)", plain.OWDms.Quantile(0.95), withAQM.OWDms.Quantile(0.95),
		plain.OWDms.Quantile(0.99), withAQM.OWDms.Quantile(0.99))
	r.check("the bound is bought with drops", withAQM.AQMDrops > 0,
		"%d CoDel head drops", withAQM.AQMDrops)
	r.check("stall rate does not worsen", withAQM.StallsPerMin <= plain.StallsPerMin+0.2,
		"%.2f vs %.2f /min", withAQM.StallsPerMin, plain.StallsPerMin)
	return r
}

// ExtMultipath evaluates the multipath-transport idea of §2.1/§5: duplicate
// the stream over both operators' access links and play the first copy.
// Uncorrelated last-mile failures stop mattering, which is exactly the
// reliability argument the paper makes for multipath.
func ExtMultipath(o Options) *Report {
	o.defaults()
	r := &Report{ID: "ext-mpath", Title: "Multipath duplication over both operators (§5 extension)"}
	base := core.Config{Env: cell.Rural, Air: true, CC: core.CCStatic, Seed: o.Seed}
	mp := base
	mp.Bond = bond.Config{Policy: bond.PolicyDuplicate}
	single := campaign(base, o)
	dual := campaign(mp, o)
	r.row("single path (P1):   <300ms %.0f%%  owd p99 %5.0f ms  skipped %3d  stalls %.2f/min",
		100*single.PlaybackMs.FracBelow(300), single.OWDms.Quantile(0.99), single.FramesSkipped, single.StallsPerMin)
	r.row("duplication (P1+P2): <300ms %.0f%%  owd p99 %5.0f ms  skipped %3d  stalls %.2f/min  dups %d",
		100*dual.PlaybackMs.FracBelow(300), dual.OWDms.Quantile(0.99), dual.FramesSkipped, dual.StallsPerMin, dual.MultipathDuplicates)
	r.check("duplication cuts the delay tail", dual.OWDms.Quantile(0.99) < 0.5*single.OWDms.Quantile(0.99),
		"p99 %.0f → %.0f ms", single.OWDms.Quantile(0.99), dual.OWDms.Quantile(0.99))
	r.check("duplication improves the 300 ms target",
		dual.PlaybackMs.FracBelow(300) > single.PlaybackMs.FracBelow(300)+0.1,
		"%.0f%% → %.0f%%", 100*single.PlaybackMs.FracBelow(300), 100*dual.PlaybackMs.FracBelow(300))
	r.check("fewer frames lost", dual.FramesSkipped <= single.FramesSkipped,
		"%d → %d skipped", single.FramesSkipped, dual.FramesSkipped)
	r.check("duplicates actually flowed", dual.MultipathDuplicates > 1000,
		"%d duplicate copies discarded", dual.MultipathDuplicates)
	return r
}
