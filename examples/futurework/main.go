// The paper's §5 asks what would fix the problems it measured. This example
// runs the three implemented answers side by side:
//
//   - DAPS make-before-break handovers (removes the latency spikes),
//   - CoDel AQM on the bottleneck (bounds bufferbloat delay),
//   - multipath duplication over both operators (removes correlated-path
//     outages).
package main

import (
	"fmt"

	"rpivideo"
)

func main() {
	show := func(name string, cfg rpivideo.Config) {
		r := rpivideo.Run(cfg)
		fmt.Printf("%-28s <300ms %3.0f%%   owd p99 %5.0f ms   stalls %.2f/min   skipped %d\n",
			name, 100*r.PlaybackMs.FracBelow(300), r.OWDms.Quantile(0.99),
			r.StallsPerMin, r.FramesSkipped)
	}

	fmt.Println("urban static 25 Mbps flight:")
	base := rpivideo.Config{Env: rpivideo.Urban, Air: true, CC: rpivideo.Static, Seed: 7}
	show("  baseline", base)
	daps := base
	daps.DAPS = true
	show("  + DAPS handover", daps)

	fmt.Println("\nrural static 8 Mbps flight:")
	rural := rpivideo.Config{Env: rpivideo.Rural, Air: true, CC: rpivideo.Static, Seed: 7}
	show("  baseline (P1 only)", rural)
	mp := rural
	mp.Bond = rpivideo.BondConfig{Policy: rpivideo.BondDuplicate}
	show("  + duplication over P1+P2", mp)

	fmt.Println("\nrural ground, static pushed to 10.5 Mbps (bufferbloat regime):")
	hot := rpivideo.Config{Env: rpivideo.Rural, Air: false, CC: rpivideo.Static, StaticRate: 10.5e6, Seed: 7}
	show("  deep FIFO", hot)
	aqm := hot
	aqm.AQM = true
	show("  + CoDel AQM", aqm)
	fmt.Println("  (CoDel halves the network delay tail and removes overflow frame loss;")
	fmt.Println("   it cannot remove radio-stall spikes, which are not standing queues)")
}
