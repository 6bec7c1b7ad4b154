// Handover anatomy (Fig. 8/9): one rural GCC flight's latency timeline with
// handover markers, and the max/min latency ratios in the windows around
// each handover.
package main

import (
	"fmt"
	"time"

	"rpivideo"
	"rpivideo/internal/core"
	"rpivideo/internal/metrics"
	"rpivideo/internal/obs/analyze"
)

func main() {
	r := rpivideo.Run(rpivideo.Config{
		Env:   rpivideo.Rural,
		Air:   true,
		CC:    rpivideo.GCC,
		Seed:  4,
		Trace: true,
	})
	// The same analysis `rpbench -analyze flight.jsonl` runs on an exported
	// trace: per-handover epoch windows plus the media one-way-delay samples.
	a := analyze.Run(core.TraceRunMeta(r, 0), r.Trace.Chunks()...)

	fmt.Printf("rural GCC flight: %d handovers over %v\n\n", len(r.Handovers), r.Duration)

	// ASCII timeline: one row per 5 s, bar length ∝ p95 OWD.
	const binUs = int64(5 * time.Second / time.Microsecond)
	for lo := int64(0); lo < r.Duration.Microseconds(); lo += binUs {
		var d metrics.Dist
		for _, s := range a.OWDWindow(lo, lo+binUs) {
			d.Add(s.Ms)
		}
		if d.N() == 0 {
			continue
		}
		p95 := d.Quantile(0.95)
		bar := int(p95 / 20)
		if bar > 40 {
			bar = 40
		}
		marker := ""
		for _, e := range a.Epochs {
			if e.Kind == "handover" && e.AtUs >= lo && e.AtUs < lo+binUs {
				het := time.Duration(e.GapUs) * time.Microsecond
				marker += fmt.Sprintf("  HO(%d→%d, %v)", e.Src, e.Dst, het.Round(time.Millisecond))
			}
		}
		fmt.Printf("t=%3ds |%-40s| p95=%4.0fms%s\n", lo/1_000_000, bars(bar), p95, marker)
	}

	// The Fig. 9 statistic.
	var before, after metrics.Dist
	for _, e := range a.Epochs {
		if e.Kind != "handover" {
			continue
		}
		if e.PreOK {
			before.Add(e.PreRatio)
		}
		if e.PostOK {
			after.Add(e.PostRatio)
		}
	}
	fmt.Printf("\nmax/min latency ratio before handovers: mean %.1f× max %.0f× (paper: ≈8×, up to 37×)\n",
		before.Mean(), before.Max())
	fmt.Printf("max/min latency ratio after handovers:  mean %.1f× (paper: ≈5×)\n", after.Mean())
}

func bars(n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
