package experiments

import (
	"fmt"
	"slices"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/core"
	"rpivideo/internal/fault"
)

// robustness runs the deterministic fault-injection scenario: the three
// rate-control regimes fly the same urban ground campaign through the same
// scripted coverage blackout (default: 2 s at t=45 s; override with
// Options.FaultSpec) with the graceful-degradation machinery armed —
// feedback-starvation watchdog, stale-queue flush and post-outage keyframe
// recovery. The shape claims: every regime sees the identical outage
// timeline; the adaptive controllers come back to ≥80% of their pre-outage
// rate within seconds and bound the post-outage queue; the static sender
// blindly fills the dead link's buffer and pays in overflows, flushed
// packets and playback damage.
func robustness(o Options, r *Report) {
	spec, ws := o.schedule("45s+2s")
	r.row("schedule %q, watchdog + stale flush + keyframe recovery armed", spec)

	base := core.Config{
		Env: cell.Urban, Air: false, Seed: o.Seed, Duration: 90 * time.Second,
		Faults: fault.Config{
			Windows:          ws,
			Watchdog:         true,
			KeyframeRecovery: true,
		},
	}
	var static *fold
	mismatches := 0 // regimes whose fault timeline differs from static's
	for _, cc := range []core.CCKind{core.CCStatic, core.CCGCC, core.CCSCReAM} {
		cfg := base
		cfg.CC = cc
		m := campaign(cfg, o)
		if static == nil {
			static = m
		} else if !slices.Equal(m.FaultEpisodes, static.FaultEpisodes) {
			mismatches++
		}
		r.measure(cc.String(), &m.Summary)
		rec := "n/a"
		if m.RecoveryMs.N() > 0 {
			rec = fmt.Sprintf("med %4.0f max %5.0f ms", m.RecoveryMs.Median(), m.RecoveryMs.Max())
		}
		r.row("%-7v outages %d (%.1fs)  recovery %s  post-outage queue %5.0f ms  overflow %4d  stale %4d  kf-req %2d  skipped %3d  stalls %.2f/min",
			cc, m.Outages, m.OutageTotal.Seconds(), rec, m.PostOutageQueueMs,
			m.Overflows, m.StaleDrops, m.KeyframeRequests, m.FramesSkipped, m.StallsPerMin)
	}

	// An outage is judged for recovery only when the run leaves enough tail
	// after it: SCReAM's ramp from the floor is the slowest recovery in the
	// suite (≈25 s ramp-up, tbl-rampup), so an episode ending within 30 s
	// of the run end is reported but not asserted.
	judgeable := 0
	for _, w := range ws {
		if w.End()+30*time.Second <= base.Duration {
			judgeable++
		}
	}
	r.set("timeline_mismatches", float64(mismatches))
	r.set("scheduled_outages", float64(len(ws)*o.Runs))
	r.set("judged_outages", float64(judgeable*o.Runs))
}
