package experiments

import (
	"time"

	"rpivideo/internal/bond"
	"rpivideo/internal/cell"
	"rpivideo/internal/core"
	"rpivideo/internal/fault"
)

// bondExp runs the dual-operator link-bonding comparison: a single-operator
// baseline and each scheduler policy fly the same urban ground GCC campaign
// through the same primary-operator blackout (default: 2 s at t=45 s on the
// primary bonded path; override with Options.FaultSpec) with RLF and the
// graceful-degradation machinery armed. The shape claims: failover rides out
// the primary's outage on the hot standby — strictly less stall time and
// frame loss than the single-operator run — while duplication pays the
// highest redundancy bill (≈2 radio sends per delivered packet) and the
// selective policies pay only the keep-alive probes.
func bondExp(o Options, r *Report) {
	spec, ws := o.schedule("45s+2s@p1")
	r.row("schedule %q, RLF + watchdog + keyframe recovery armed", spec)

	base := core.Config{
		Env: cell.Urban, Air: false, CC: core.CCGCC, Seed: o.Seed, Duration: 90 * time.Second,
		Faults: fault.Config{
			Windows:          ws,
			RLF:              true,
			Watchdog:         true,
			KeyframeRecovery: true,
		},
	}
	names, cfgs := []string{"single"}, []core.Config{base}
	for _, p := range bond.Policies() {
		cfg := base
		cfg.Bond = bond.Config{Policy: p}
		names, cfgs = append(names, p.String()), append(cfgs, cfg)
	}
	r.set("runs", float64(o.Runs))
	for i, cfg := range cfgs {
		f := campaign(cfg, o)
		// The redundancy bill: radio transmissions per uniquely delivered
		// packet. Duplication pays ≈2×; the selective policies pay only the
		// keep-alive probes.
		sent, delivered := int64(f.PacketsSent), int64(f.PacketsDelivered)
		if len(f.BondPaths) > 0 {
			sent, delivered = 0, 0
			for _, p := range f.BondPaths {
				sent += p.Sent
				delivered += p.Delivered - p.Suppressed // unique first copies
			}
		}
		overhead := float64(sent) / float64(delivered)
		r.row("%-9s stall %7.0f ms  skipped %4d  overhead %.3f sends/delivered  switches %3d  path-down %3d  reorder late+forced %3d",
			names[i], f.stallMs, f.FramesSkipped, overhead, f.BondSwitches, f.BondPathDownEvents, f.BondReorderLate+f.BondReorderForced)
		r.set(names[i]+".stall_ms", f.stallMs)
		r.set(names[i]+".frames_skipped", float64(f.FramesSkipped))
		r.set(names[i]+".overhead", overhead)
		r.set(names[i]+".switches", float64(f.BondSwitches))
		r.set(names[i]+".path_down", float64(f.BondPathDownEvents))
	}
}
