package experiments

import (
	"fmt"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/core"
)

// ablAck reproduces the §4.2.1 diagnosis: the SCReAM library's RFC 8888
// feedback covers only a fixed number of packets per report, so when more
// packets arrive between two consecutive reports than the window covers,
// the overflow is never acknowledged and the sender infers spurious losses.
// The paper hit this above ≈7 Mbps with the library's 64-packet default and
// raised the window to 256. The crossover rate depends on the report cadence
// and packet size; this ablation runs at the cadence where a high-rate urban
// stream exceeds 64 packets per report, comparing both window sizes.
func ablAck(o Options, r *Report) {
	for _, window := range []int{64, 256} {
		f := campaign(core.Config{
			Env: cell.Urban, Air: true, CC: core.CCSCReAM,
			ScreamAckWindow:        window,
			ScreamFeedbackInterval: 40 * time.Millisecond,
			Seed:                   o.Seed,
		}, o)
		r.row("window %3d: goodput %5.1f Mbps  losses %5d (window-expiry %4d)  discards %d",
			window, f.GoodputMean(), f.ScreamLosses, f.ScreamLossesWindow, f.ScreamDiscards)
		name := fmt.Sprintf("w%d", window)
		r.measure(name, &f.Summary)
		r.set(name+".window_loss_rate", float64(f.ScreamLossesWindow)/float64(f.PacketsSent))
	}
}

// ablEstimator compares the two GCC delay estimators: the Kalman filter of
// the 2016-era GCC the paper ran, and the trendline (least-squares slope)
// estimator modern WebRTC ships. Both must deliver the paper's urban
// behaviour — high goodput with low playback latency — establishing that the
// measured GCC results are not an artifact of the estimator generation.
func ablEstimator(o Options, r *Report) {
	for _, v := range []struct {
		name      string
		trendline bool
	}{{"kalman", false}, {"trendline", true}} {
		f := campaign(core.Config{Env: cell.Urban, Air: true, CC: core.CCGCC, GCCTrendline: v.trendline, Seed: o.Seed}, o)
		r.measure(v.name, &f.Summary)
		r.row("%-10s goodput %5.1f Mbps  <300ms %.0f%%  owd p99 %4.0f ms",
			v.name+":", f.GoodputMean(), 100*f.PlaybackMs.FracBelow(300), f.OWDms.Quantile(0.99))
	}
}

// ablJitterBuffer explores the §4.2 overview's remark that the jitter
// buffer can be resized, and Appendix A.4's drop-on-latency proposal: lower
// buffering trades stalls for latency, and dropping stale frames shortens
// recovery after spikes.
func ablJitterBuffer(o Options, r *Report) {
	run := func(name string, buf time.Duration, drop bool) *fold {
		f := campaign(core.Config{
			Env: cell.Urban, Air: true, CC: core.CCGCC,
			JitterBuffer: buf, DropOnLatency: drop, Seed: o.Seed,
		}, o)
		r.stat(name+".playback_p90", &f.PlaybackMs, f.PlaybackMs.Quantile(0.9))
		return f
	}
	for _, b := range []time.Duration{50 * time.Millisecond, 150 * time.Millisecond, 300 * time.Millisecond} {
		f := run(fmt.Sprintf("buffer%d", b/time.Millisecond), b, false)
		r.row("buffer %4dms: <300ms %.0f%%  p90 %4.0fms  stalls %.2f/min",
			b/time.Millisecond, 100*f.PlaybackMs.FracBelow(300), f.PlaybackMs.Quantile(0.9), f.StallsPerMin)
	}
	f := run("buffer150+drop", 150*time.Millisecond, true)
	r.row("buffer  150ms + drop-on-latency: <300ms %.0f%%  p90 %4.0fms  stalls %.2f/min",
		100*f.PlaybackMs.FracBelow(300), f.PlaybackMs.Quantile(0.9), f.StallsPerMin)
}
