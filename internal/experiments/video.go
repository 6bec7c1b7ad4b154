package experiments

import (
	"math"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/core"
	"rpivideo/internal/metrics"
)

// ccConfigs enumerates the six method × environment cells of §4.2.
func ccConfigs(seed int64) []core.Config {
	var out []core.Config
	for _, env := range []cell.Environment{cell.Urban, cell.Rural} {
		for _, cc := range []core.CCKind{core.CCStatic, core.CCSCReAM, core.CCGCC} {
			out = append(out, core.Config{Env: env, Air: true, CC: cc, Seed: seed})
		}
	}
	return out
}

// videoCampaigns runs the six cells, records their campaign quantities under
// their labels and returns their folds by label.
func videoCampaigns(o Options, r *Report) map[string]*fold {
	out := map[string]*fold{}
	for _, cfg := range ccConfigs(o.Seed) {
		f := campaign(cfg, o)
		r.measure(cfg.Label(), &f.Summary)
		out[cfg.Label()] = f
	}
	return out
}

// fig6 reproduces Fig. 6: the goodput of the three delivery methods in both
// environments.
func fig6(o Options, r *Report) {
	res := videoCampaigns(o, r)
	for _, cfg := range ccConfigs(o.Seed) {
		r.row("%-24s %s", cfg.Label(), res[cfg.Label()].Goodput.Box())
	}
}

// fig7a reproduces Fig. 7(a): the FPS distributions.
func fig7a(o Options, r *Report) {
	res := videoCampaigns(o, r)
	grid := []float64{0, 10, 20, 29}
	for _, cfg := range ccConfigs(o.Seed) {
		d := &res[cfg.Label()].FPS
		r.Lines = append(r.Lines, cdfRow(cfg.Label(), d, grid))
		r.stat(cfg.Label()+".fps≥29", d, d.FracAtOrAbove(29))
		r.stat(cfg.Label()+".fps_p0.5", d, d.Quantile(0.005))
	}
}

// fig7b reproduces Fig. 7(b): the SSIM distributions with the 0.5 quality
// threshold.
func fig7b(o Options, r *Report) {
	res := videoCampaigns(o, r)
	worst, best := 0.0, 1.0 // the interruption range across the six cells
	for _, cfg := range ccConfigs(o.Seed) {
		d := &res[cfg.Label()].SSIM
		r.row("%-24s below-0.5 %.2f%%   p10 %.2f   median %.2f", cfg.Label(),
			100*d.FracBelow(0.5), d.Quantile(0.10), d.Median())
		r.stat(cfg.Label()+".ssim_median", d, d.Median())
		r.stat(cfg.Label()+".ssim<0.5", d, d.FracBelow(0.5))
		worst = math.Max(worst, r.Quantities[cfg.Label()+".ssim<0.5"])
		best = math.Min(best, r.Quantities[cfg.Label()+".ssim<0.5"])
	}
	r.set("ssim<0.5.worst", worst)
	r.set("ssim<0.5.best", best)
}

// fig7c reproduces Fig. 7(c): the playback latency CDFs with the 300 ms RP
// threshold.
func fig7c(o Options, r *Report) {
	res := videoCampaigns(o, r)
	grid := []float64{200, 300, 500, 1000}
	for _, cfg := range ccConfigs(o.Seed) {
		r.Lines = append(r.Lines, cdfRow(cfg.Label(), &res[cfg.Label()].PlaybackMs, grid))
	}
}

// tblStall reproduces the §4.2.1 stall-rate comparison.
func tblStall(o Options, r *Report) {
	for _, cc := range []core.CCKind{core.CCStatic, core.CCSCReAM, core.CCGCC} {
		f := campaign(core.Config{Env: cell.Urban, Air: true, CC: cc, Seed: o.Seed}, o)
		r.measure(cc.String(), &f.Summary)
		r.row("%-8s %.2f stalls/min", cc, f.StallsPerMin)
	}
	r.row("(paper: GCC 1.37, SCReAM 0.89, static 0.11)")
	r.set("adaptive.stalls_per_min_max", math.Max(r.Quantities["gcc.stalls_per_min"], r.Quantities["scream.stalls_per_min"]))
}

// tblRampUp reproduces the §4.2.1 ramp-up comparison: the time each CC
// needs to reach the 25 Mbps target on a well-provisioned link.
func tblRampUp(o Options, r *Report) {
	// A 90 s window is ample: the paper's slowest ramp is ≈25 s.
	const window = 90 * time.Second
	up := map[string]*metrics.Dist{}
	for _, cc := range []core.CCKind{core.CCGCC, core.CCSCReAM} {
		d := &metrics.Dist{}
		for _, s := range campaign(core.Config{Env: cell.Urban, Air: false, CC: cc, Seed: o.Seed, Duration: window}, o).rampUpS {
			d.Add(s)
		}
		up[cc.String()] = d
	}
	r.row("GCC:    mean %.1f s (paper ≈12 s)", up["gcc"].Mean())
	r.row("SCReAM: mean %.1f s (paper ≈25 s)", up["scream"].Mean())
	r.set("runs", float64(o.Runs))
	for name, d := range up {
		r.set(name+".reached", float64(d.N()))
		r.stat(name+".rampup_s", d, d.Mean())
	}
}
