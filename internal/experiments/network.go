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

// Fig4aHandoverFrequency reproduces Fig. 4(a): handover frequency in the
// air versus on the ground, per environment.
func Fig4aHandoverFrequency(o Options) *Report {
	o.defaults()
	r := &Report{ID: "fig4a", Title: "Handover frequency, air vs ground (HO/s)"}
	rates := map[string]float64{}
	var maxPerRun float64
	for _, cfg := range mobilityConfigs(o.Seed) {
		results := seededCampaign(cfg, o)
		var perRun metrics.Dist
		for _, res := range results {
			rate := res.HandoverRate()
			perRun.Add(rate)
			if cfg.Air && rate > maxPerRun {
				maxPerRun = rate
			}
		}
		rates[cfg.Label()] = perRun.Mean()
		r.row("%-22s %s", cfg.Label(), perRun.Box())
	}
	airU, grdU := rates["urban-P1-air-static"], rates["urban-P1-grd-static"]
	airR, grdR := rates["rural-P1-air-static"], rates["rural-P1-grd-static"]
	r.check("air ≈ order of magnitude above ground (urban)", airU >= 4*grdU,
		"air %.3f vs grd %.3f (paper: ≈10×)", airU, grdU)
	r.check("air above ground (rural)", airR >= 3*grdR, "air %.3f vs grd %.3f", airR, grdR)
	r.check("urban air above rural air", airU > airR, "%.3f vs %.3f", airU, airR)
	r.check("peak air rate plausible", maxPerRun <= 0.8, "max %.3f HO/s (paper: up to 0.7)", maxPerRun)
	return r
}

// Fig4bHandoverExecutionTime reproduces Fig. 4(b): HET in the air vs on the
// ground, with the 49.5 ms 3GPP success threshold and the aerial outliers.
func Fig4bHandoverExecutionTime(o Options) *Report {
	o.defaults()
	r := &Report{ID: "fig4b", Title: "Handover execution time, air vs ground (ms)"}
	var air, grd metrics.Dist
	for _, cfg := range mobilityConfigs(o.Seed) {
		for _, res := range seededCampaign(cfg, o) {
			for _, ev := range res.Handovers {
				ms := float64(ev.HET) / float64(time.Millisecond)
				if cfg.Air {
					air.Add(ms)
				} else {
					grd.Add(ms)
				}
			}
		}
	}
	r.row("%-6s %s", "air", air.Box())
	r.row("%-6s %s", "grd", grd.Box())
	r.row("air:   ≤49.5ms %.1f%%   >500ms %.2f%%", 100*air.FracBelow(49.5), 100*air.FracAtOrAbove(500))
	r.row("grd:   ≤49.5ms %.1f%%   >500ms %.2f%%", 100*grd.FracBelow(49.5), 100*grd.FracAtOrAbove(500))
	r.check("majority below 49.5 ms (3GPP threshold)", air.FracBelow(49.5) > 0.6 && grd.FracBelow(49.5) > 0.6,
		"air %.0f%%, grd %.0f%%", 100*air.FracBelow(49.5), 100*grd.FracBelow(49.5))
	r.check("excessive outliers are aerial", air.Max() > 500 && air.Max() <= 4001,
		"air max %.0f ms (paper: up to 4 s)", air.Max())
	r.check("ground outliers bounded", grd.N() == 0 || grd.Max() <= 1000, "grd max %.0f ms", grd.Max())
	return r
}

// Fig5OneWayLatency reproduces Fig. 5: the one-way latency CDFs on the
// ground and in the air, urban and rural.
func Fig5OneWayLatency(o Options) *Report {
	o.defaults()
	r := &Report{ID: "fig5", Title: "One-way latency CDF, ground vs air (ms)"}
	grid := []float64{30, 50, 100, 300, 1000}
	dists := map[string]*metrics.Sketch{}
	for _, cfg := range mobilityConfigs(o.Seed) {
		res := campaign(cfg, o)
		d := &res.OWDms
		dists[cfg.Label()] = d
		r.Lines = append(r.Lines, cdfRow(cfg.Label(), d, grid))
	}
	grdU100 := dists["urban-P1-grd-static"].FracBelow(100)
	airU100 := dists["urban-P1-air-static"].FracBelow(100)
	airR100 := dists["rural-P1-air-static"].FracBelow(100)
	r.check("ground ≈99% below 100 ms (urban)", grdU100 > 0.95, "%.1f%%", 100*grdU100)
	r.check("rural air mostly below 100 ms too", airR100 > 0.6, "%.1f%%", 100*airR100)
	r.check("air below ground (urban)", airU100 < grdU100, "air %.1f%% vs grd %.1f%%", 100*airU100, 100*grdU100)
	r.check("air still mostly below 100 ms", airU100 > 0.80, "%.1f%% (paper ≈96%%)", 100*airU100)
	r.check("air tail exceeds 1 s", dists["urban-P1-air-static"].Max() > 1000 || dists["rural-P1-air-static"].Max() > 1000,
		"urban max %.0f, rural max %.0f", dists["urban-P1-air-static"].Max(), dists["rural-P1-air-static"].Max())
	r.check("rural latency above urban (air median)",
		dists["rural-P1-air-static"].Median() > dists["urban-P1-air-static"].Median(),
		"rural %.0f ms vs urban %.0f ms", dists["rural-P1-air-static"].Median(), dists["urban-P1-air-static"].Median())
	return r
}

// traceAnalysis runs the trace analyzer over one traced run, exactly as
// rpbench -report does live and rpbench -analyze does from the JSONL export.
func traceAnalysis(res *core.Result, run int) *analyze.RunAnalysis {
	return analyze.Run(core.TraceRunMeta(res, run), res.Trace.Events())
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

// Fig8HandoverTimeline reproduces Fig. 8: one flight's network latency,
// playback latency proxy, packet losses and handovers on a common timeline,
// demonstrating that latency spikes precede handovers. It reads the flight's
// event trace through the analyzer.
func Fig8HandoverTimeline(o Options) *Report {
	o.defaults()
	r := &Report{ID: "fig8", Title: "Handover timeline: latency spikes around HOs (single rural GCC flight)"}
	res := core.Run(core.Config{Env: cell.Rural, Air: true, CC: core.CCGCC, Seed: o.Seed, Trace: true})
	if res.OWDms.N() == 0 {
		r.check("flight produced packets", false, "empty OWD series")
		return r
	}
	a := traceAnalysis(res, 0)
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
	// Shape: the peak OWD in the window around each HO (the pre-HO
	// degradation through the execution gap) should far exceed the
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
	r.check("handovers present", len(handovers) > 0, "%d handovers", len(handovers))
	r.check("latency spikes accompany handovers", len(handovers) > 0 && spiked*2 >= len(handovers),
		"%d of %d HOs with >2.5×median OWD in the surrounding window", spiked, len(handovers))
	return r
}

// Fig9LatencyRatio reproduces Fig. 9: max/min network latency ratio in the
// 1-second windows before and after each aerial handover — the analyzer's
// epoch windows. Each traced run is reduced to its epochs when its turn in
// the campaign fold comes, so memory stays flat in Options.Runs.
func Fig9LatencyRatio(o Options) *Report {
	o.defaults()
	r := &Report{ID: "fig9", Title: "Max/min latency ratio around aerial handovers"}
	var before, after metrics.Dist
	for _, env := range []cell.Environment{cell.Urban, cell.Rural} {
		cfg := core.Config{Env: env, Air: true, CC: core.CCStatic, Seed: o.Seed, Trace: true}
		mustRun(core.RunCampaignFold(cfg, o.Runs, experimentOptions(o), func(i int, res *core.Result) {
			if res == nil {
				return
			}
			for _, e := range handoverEpochs(traceAnalysis(res, i)) {
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
	r.check("before-HO spikes pronounced", before.Mean() >= 3, "mean %.1f× (paper ≈8×)", before.Mean())
	r.check("before exceeds after", before.Mean() > after.Mean(), "%.1f vs %.1f (paper 8 vs 5)", before.Mean(), after.Mean())
	r.check("outliers exist but bounded", before.Max() >= 10 && before.Max() <= 80, "max %.0f× (paper up to 37×)", before.Max())
	return r
}
