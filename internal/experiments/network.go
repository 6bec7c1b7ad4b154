package experiments

import (
	"math"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/core"
	"rpivideo/internal/metrics"
	"rpivideo/internal/obs/analyze"
)

// mobilityConfigs enumerates the four air/ground × urban/rural corners the
// networking section (§4.1) compares, using the static workload (handover
// and latency statistics are workload-independent at this level).
func mobilityConfigs(seed int64) []core.Config {
	var out []core.Config
	for _, env := range []cell.Environment{cell.Urban, cell.Rural} {
		for _, air := range []bool{true, false} {
			out = append(out, core.Config{Env: env, Air: air, CC: core.CCStatic, Seed: seed})
		}
	}
	return out
}

// fig4a reproduces Fig. 4(a): handover frequency in the air versus on the
// ground, per environment.
func fig4a(o Options, r *Report) {
	var airMax float64
	for _, cfg := range mobilityConfigs(o.Seed) {
		var perRun metrics.Dist
		for _, rate := range campaign(cfg, o).hoRates {
			perRun.Add(rate)
			if cfg.Air {
				airMax = max(airMax, rate)
			}
		}
		r.stat(cfg.Label()+".handover_rate", &perRun, perRun.Mean())
		r.row("%-22s %s", cfg.Label(), perRun.Box())
	}
	r.set("air.handover_rate_max", airMax)
}

// fig4b reproduces Fig. 4(b): HET in the air vs on the ground, with the
// 49.5 ms 3GPP success threshold and the aerial outliers.
func fig4b(o Options, r *Report) {
	var air, grd metrics.Dist
	for _, cfg := range mobilityConfigs(o.Seed) {
		d := &grd
		if cfg.Air {
			d = &air
		}
		for _, ms := range campaign(cfg, o).hetMs {
			d.Add(ms)
		}
	}
	r.row("%-6s %s", "air", air.Box())
	r.row("%-6s %s", "grd", grd.Box())
	r.row("air:   ≤49.5ms %.1f%%   >500ms %.2f%%", 100*air.FracBelow(49.5), 100*air.FracAtOrAbove(500))
	r.row("grd:   ≤49.5ms %.1f%%   >500ms %.2f%%", 100*grd.FracBelow(49.5), 100*grd.FracAtOrAbove(500))
	for name, d := range map[string]*metrics.Dist{"air": &air, "grd": &grd} {
		r.set(name+".handovers", float64(d.N()))
		r.stat(name+".het<49.5", d, d.FracBelow(49.5))
		r.stat(name+".het_max", d, d.Max())
	}
}

// fig5 reproduces Fig. 5: the one-way latency CDFs on the ground and in the
// air, urban and rural.
func fig5(o Options, r *Report) {
	grid := []float64{30, 50, 100, 300, 1000}
	var airMax float64 // the longer of the two aerial tails
	for _, cfg := range mobilityConfigs(o.Seed) {
		d := &campaign(cfg, o).OWDms
		r.Lines = append(r.Lines, cdfRow(cfg.Label(), d, grid))
		r.stat(cfg.Label()+".owd<100", d, d.FracBelow(100))
		r.stat(cfg.Label()+".owd_median", d, d.Median())
		if cfg.Air {
			airMax = math.Max(airMax, d.Max())
		}
	}
	r.set("air.owd_max", airMax)
}

// handoverEpochs returns the analysis' handover windows (RLF epochs dropped).
func handoverEpochs(a *analyze.RunAnalysis) []analyze.Epoch {
	var out []analyze.Epoch
	for _, e := range a.Epochs {
		if e.Kind == "handover" {
			out = append(out, e)
		}
	}
	return out
}

// fig8 reproduces Fig. 8: one flight's network latency, playback latency
// proxy, packet losses and handovers on a common timeline, demonstrating
// that latency spikes precede handovers. It reads the flight's event trace
// through the analyzer.
func fig8(o Options, r *Report) {
	res := core.Run(core.Config{Env: cell.Rural, Air: true, CC: core.CCGCC, Seed: o.Seed, Trace: true})
	a := analyze.Run(core.TraceRunMeta(res, 0), res.Trace.Chunks()...)
	handovers := handoverEpochs(a)
	// Print a 5-second-bin timeline: median OWD per bin, HO markers.
	const (
		usPerSecond = int64(time.Second / time.Microsecond)
		binUs       = 5 * usPerSecond
	)
	for lo := int64(0); lo < res.Duration.Microseconds(); lo += binUs {
		var d metrics.Dist
		for _, s := range a.OWDWindow(lo, lo+binUs) {
			d.Add(s.Ms)
		}
		if d.N() == 0 {
			continue
		}
		marker := ""
		for _, e := range handovers {
			if e.AtUs >= lo && e.AtUs < lo+binUs {
				marker += " HO"
			}
		}
		r.row("t=%3ds owd p50=%5.0fms p95=%6.0fms%s", lo/usPerSecond, d.Median(), d.Quantile(0.95), marker)
	}
	// A handover is spiked when the peak OWD in the window around it (the
	// pre-HO degradation through the execution gap) exceeds 2.5× the
	// flight's median OWD — the exact median, from every sample the trace
	// holds (the Result keeps a sketch).
	var all metrics.Dist
	for _, s := range a.OWDWindow(0, math.MaxInt64) {
		all.Add(s.Ms)
	}
	med := all.Median()
	spiked := 0
	for _, e := range handovers {
		for _, s := range a.OWDWindow(e.AtUs-usPerSecond, e.AtUs+e.GapUs+usPerSecond/2) {
			if s.Ms > 2.5*med {
				spiked++
				break
			}
		}
	}
	r.set("handovers", float64(len(handovers)))
	r.set("spiked_handovers", float64(spiked))
}

// fig9 reproduces Fig. 9: max/min network latency ratio in the 1-second
// windows before and after each aerial handover — the analyzer's epoch
// windows. Each traced run is reduced to its epochs when its turn in the
// campaign fold comes, so memory stays flat in Options.Runs.
func fig9(o Options, r *Report) {
	var before, after metrics.Dist
	for _, env := range []cell.Environment{cell.Urban, cell.Rural} {
		cfg := core.Config{Env: env, Air: true, CC: core.CCStatic, Seed: o.Seed, Trace: true}
		mustRun(core.RunCampaignFold(cfg, o.Runs, o.campaignOptions(), func(i int, res *core.Result) {
			if res == nil {
				return
			}
			for _, e := range handoverEpochs(analyze.Run(core.TraceRunMeta(res, i), res.Trace.Chunks()...)) {
				if e.PreOK {
					before.Add(e.PreRatio)
				}
				if e.PostOK {
					after.Add(e.PostRatio)
				}
			}
		}))
	}
	r.row("before HO: %s", before.Box())
	r.row("after HO:  %s", after.Box())
	r.stat("before.ratio_mean", &before, before.Mean())
	r.stat("after.ratio_mean", &after, after.Mean())
	r.stat("before.ratio_max", &before, before.Max())
}
