package experiments

import (
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/core"
	"rpivideo/internal/fault"
	"rpivideo/internal/repair"
)

// repairExp runs the packet-loss repair evaluation: the same urban ground
// campaign through the same scripted loss-fade schedule (§4.3 loss bursts;
// default "20s~60ms,40s~60ms,60s~60ms,75s~60ms", override with
// Options.FaultSpec) under three receivers — PLI-only recovery (the PR 2
// baseline), the full NACK/RTX repair layer, and a repair layer with a
// starved retransmission budget.
//
// Short fades are the regime selective retransmission exists for: the
// packets are freshly cached at the sender and the frames they belong to
// are still inside the player's give-up window, so sub-RTT repair is the
// difference between a healed frame and a skip plus a GOP-wide keyframe
// recovery. The shape claims: NACK/RTX repairs the fades the PLI path can
// only skip through (fewer skips, no added stalls, fewer keyframe
// recoveries); repair traffic never exceeds the accrued budget, with the
// token bucket visibly pacing the post-fade burst; and when the budget is
// starved the layer degrades in order — denials rise, repairs fall, and
// recovery falls back to the keyframe-request path instead of
// overspending. Multi-second blackouts are deliberately absent here: the
// detector's outage guard hands those straight to the PLI path (see the
// robust experiment and the repair-blackout scenario).
func repairExp(o Options, r *Report) {
	spec, ws := o.schedule("20s~60ms,40s~60ms,60s~60ms,75s~60ms")
	r.row("schedule %q, urban ground GCC, PLI recovery armed in every arm", spec)

	base := core.Config{
		Env: cell.Urban, Air: false, CC: core.CCGCC, Seed: o.Seed,
		Duration: 90 * time.Second,
		Faults: fault.Config{
			Windows:          ws,
			Watchdog:         true,
			KeyframeRecovery: true,
		},
	}
	repaired := base
	repaired.Repair = repair.Config{Enabled: true}
	starved := base
	starved.Repair = repair.Config{Enabled: true, BudgetFraction: 1e-4, BudgetBurst: 1}

	for _, arm := range []struct {
		name string
		cfg  core.Config
	}{{"pli-only", base}, {"nack/rtx", repaired}, {"starved", starved}} {
		m := campaign(arm.cfg, o)
		r.measure(arm.name, &m.Summary)
		r.row("%-8s skipped %4d  stalls %.2f/min  nacks %4d  repaired %4d pkts / %3d frames  denied %5d  abandoned %5d  kf-req %2d  rtx %5.1f kB of %6.1f kB budget",
			arm.name, m.FramesSkipped, m.StallsPerMin, m.NacksSent,
			m.PacketsRepaired, m.FramesRepaired, m.RepairDenied, m.RepairAbandoned,
			m.KeyframeRequests, float64(m.RtxBytes)/1e3, m.RepairBudgetAccrued/1e3)
	}
}
