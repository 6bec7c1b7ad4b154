// Operator comparison (Fig. 10 and Appendix A.3): the competing operator P2
// deploys rural sites more densely than P1, which lifts capacity and video
// quality — but also the handover frequency, and SCReAM's playback latency
// does not improve with the extra capacity.
package main

import (
	"fmt"
	"log"
	"runtime"

	"rpivideo"
)

func main() {
	fmt.Printf("rural environment, 3 flights per cell (%d workers):\n", runtime.GOMAXPROCS(0))
	fmt.Printf("%-18s %8s %9s %10s %8s\n", "operator/method", "goodput", "<300ms", "ssim<0.5", "HO/s")
	for _, op := range []rpivideo.Operator{rpivideo.P1, rpivideo.P2} {
		for _, ccKind := range []rpivideo.CC{rpivideo.Static, rpivideo.SCReAM, rpivideo.GCC} {
			// RunCampaignWithOptions fans the three flights out across
			// CPUs and Summarize folds them in run-index order, so this
			// table is identical to the serial one.
			rs, errs := rpivideo.RunCampaignWithOptions(rpivideo.Config{
				Env:  rpivideo.Rural,
				Op:   op,
				Air:  true,
				CC:   ccKind,
				Seed: 2,
			}, 3, rpivideo.CampaignOptions{})
			for _, err := range errs {
				if err != nil {
					log.Fatal(err)
				}
			}
			m := rpivideo.Summarize(rs)
			fmt.Printf("%-18s %6.1fMb %8.0f%% %9.2f%% %8.3f\n",
				fmt.Sprintf("%v/%v", op, ccKind),
				m.GoodputMean(),
				100*m.PlaybackMs.FracBelow(300),
				100*m.SSIM.FracBelow(0.5),
				m.HandoverRate())
		}
	}
	fmt.Println("\npaper (Fig. 10/12): P2's denser rural deployment provides more")
	fmt.Println("capacity and more handovers; larger capacity does not fix SCReAM.")
}
