package experiments

import (
	"rpivideo/internal/bond"
	"rpivideo/internal/cell"
	"rpivideo/internal/core"
)

// extDAPS evaluates the Dual Active Protocol Stack handover (3GPP Rel-16)
// that §5 proposes as a fix for the pre-handover latency spikes: with
// make-before-break link establishment the execution gap disappears and the
// degradation around handovers is masked by the second leg.
func extDAPS(o Options, r *Report) {
	base := core.Config{Env: cell.Urban, Air: true, CC: core.CCStatic, Seed: o.Seed}
	daps := base
	daps.DAPS = true
	for _, v := range []struct {
		name, label string
		cfg         core.Config
	}{{"plain", "break-before-make:", base}, {"daps", "DAPS:", daps}} {
		f := campaign(v.cfg, o)
		r.measure(v.name, &f.Summary)
		r.row("%-18s <300ms %.0f%%  owd p99 %4.0f ms  stalls %.2f/min",
			v.label, 100*f.PlaybackMs.FracBelow(300), f.OWDms.Quantile(0.99), f.StallsPerMin)
	}
}

// extAQM evaluates the §5 bufferbloat mitigation: a CoDel queue manager on
// the bottleneck. In the queueing-dominated regime (rural ground, a static
// rate near capacity) it halves the delay tail and removes the overflow-
// induced frame loss; radio-stall spikes in the air are not queue-induced
// and remain.
func extAQM(o Options, r *Report) {
	base := core.Config{Env: cell.Rural, Air: false, CC: core.CCStatic, StaticRate: 10.5e6, Seed: o.Seed}
	aqm := base
	aqm.AQM = true
	fifo, codel := campaign(base, o), campaign(aqm, o)
	r.measure("fifo", &fifo.Summary)
	r.measure("codel", &codel.Summary)
	r.row("deep FIFO: owd p95 %4.0f ms  p99 %4.0f ms  stalls %.2f/min",
		fifo.OWDms.Quantile(0.95), fifo.OWDms.Quantile(0.99), fifo.StallsPerMin)
	r.row("CoDel:     owd p95 %4.0f ms  p99 %4.0f ms  stalls %.2f/min  aqm drops %d",
		codel.OWDms.Quantile(0.95), codel.OWDms.Quantile(0.99), codel.StallsPerMin, codel.AQMDrops)
}

// extMultipath evaluates the multipath-transport idea of §2.1/§5: duplicate
// the stream over both operators' access links and play the first copy.
// Uncorrelated last-mile failures stop mattering, which is exactly the
// reliability argument the paper makes for multipath.
func extMultipath(o Options, r *Report) {
	base := core.Config{Env: cell.Rural, Air: true, CC: core.CCStatic, Seed: o.Seed}
	mp := base
	mp.Bond = bond.Config{Policy: bond.PolicyDuplicate}
	single, dual := campaign(base, o), campaign(mp, o)
	r.measure("single", &single.Summary)
	r.measure("dual", &dual.Summary)
	r.row("single path (P1):   <300ms %.0f%%  owd p99 %5.0f ms  skipped %3d  stalls %.2f/min",
		100*single.PlaybackMs.FracBelow(300), single.OWDms.Quantile(0.99), single.FramesSkipped, single.StallsPerMin)
	r.row("duplication (P1+P2): <300ms %.0f%%  owd p99 %5.0f ms  skipped %3d  stalls %.2f/min  dups %d",
		100*dual.PlaybackMs.FracBelow(300), dual.OWDms.Quantile(0.99), dual.FramesSkipped, dual.StallsPerMin, dual.MultipathDuplicates)
}
