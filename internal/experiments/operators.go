package experiments

import (
	"rpivideo/internal/cell"
	"rpivideo/internal/core"
)

// fig10 reproduces Fig. 10: the achievable throughput and handover
// frequency of the two operators in the rural region.
func fig10(o Options, r *Report) {
	for _, op := range []cell.Operator{cell.P1, cell.P2} {
		// Achievable throughput: stream at the urban static rate (25 Mbps)
		// so the link, not the source, is the bottleneck.
		probe := campaign(core.Config{Env: cell.Rural, Op: op, Air: true, CC: core.CCStatic, StaticRate: 25e6, Seed: o.Seed}, o)
		r.measure(op.String(), &probe.Summary)
		r.row("%-3s achievable throughput %s", op, probe.Goodput.Box())
		r.row("%-3s air HO rate %.3f/s", op, probe.HandoverRate())
	}
}

// fig12 reproduces Fig. 12 (Appendix A.3): the video delivery performance
// over both operators in the rural environment, per method.
func fig12(o Options, r *Report) {
	for _, op := range []cell.Operator{cell.P1, cell.P2} {
		for _, cc := range []core.CCKind{core.CCStatic, core.CCSCReAM, core.CCGCC} {
			cfg := core.Config{Env: cell.Rural, Op: op, Air: true, CC: cc, Seed: o.Seed}
			m := campaign(cfg, o)
			r.measure(cfg.Label(), &m.Summary)
			r.row("%-24s goodput %.1f Mbps  fps@29 %.0f%%  <300ms %.0f%%  ssim<0.5 %.2f%%",
				cfg.Label(), m.GoodputMean(), 100*m.FPS.FracAtOrAbove(29),
				100*m.PlaybackMs.FracBelow(300), 100*m.SSIM.FracBelow(0.5))
		}
	}
}
