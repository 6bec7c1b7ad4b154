// The paper's headline comparison: the three rate-control regimes in the
// urban and the rural environment (Figs. 6 and 7), three flights each.
package main

import (
	"fmt"
	"os"

	"rpivideo"
)

func main() {
	fmt.Println("method × environment, 3 flights each (campaigns fan out across CPUs):")
	fmt.Printf("%-16s %8s %10s %10s %9s %8s\n",
		"configuration", "goodput", "<300ms", "ssim<0.5", "stalls/m", "HO/s")
	// A status sink makes long sweeps observable: one line per completed
	// flight with the aggregate simulation speed.
	opts := rpivideo.CampaignOptions{StatusSink: progressLine{}}
	for _, env := range []rpivideo.Environment{rpivideo.Urban, rpivideo.Rural} {
		for _, ccKind := range []rpivideo.CC{rpivideo.Static, rpivideo.SCReAM, rpivideo.GCC} {
			rs, errs := rpivideo.RunCampaignWithOptions(rpivideo.Config{
				Env:  env,
				Air:  true,
				CC:   ccKind,
				Seed: 1,
			}, 3, opts)
			for _, err := range errs {
				if err != nil {
					fmt.Fprintln(os.Stderr, "run failed:", err)
					os.Exit(1)
				}
			}
			m := rpivideo.Summarize(rs)
			fmt.Printf("%-16s %6.1fMb %9.0f%% %9.2f%% %9.2f %8.3f\n",
				fmt.Sprintf("%v/%v", env, ccKind),
				m.GoodputMean(),
				100*m.PlaybackMs.FracBelow(300),
				100*m.SSIM.FracBelow(0.5),
				m.StallsPerMin,
				m.HandoverRate())
		}
	}
	fmt.Println("\npaper (Fig. 6/7): urban goodput 25 > 21 > 19 Mbps;")
	fmt.Println("SCReAM wins rural goodput but collapses on urban playback latency.")
}

// progressLine prints each status snapshot to stderr and ignores the runs'
// metrics.
type progressLine struct{}

func (progressLine) PublishStatus(s rpivideo.StatusSnapshot) {
	fmt.Fprintf(os.Stderr, "  run %d/%d done (%.0f sim-s/s)\n", s.RunsDone, s.RunsTotal, s.SimRate)
}

func (progressLine) ObserveRun(*rpivideo.MetricsRegistry) {}
