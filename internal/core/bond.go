package core

import (
	"time"

	"rpivideo/internal/bond"
	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
	"rpivideo/internal/flight"
	"rpivideo/internal/link"
	"rpivideo/internal/obs"
	"rpivideo/internal/sim"
)

// bondTick is the bond health monitor's (and reorder buffer's) cadence.
const bondTick = 50 * time.Millisecond

// bondPaths is a bonded run's view of its radio chains: the bond manager,
// the per-path uplinks (path 0 is the primary chain Run built) and the
// receiver-side reorder buffer for striping policies (set by newEndpoints once
// the receiver exists).
type bondPaths struct {
	mgr     *bond.Manager
	uplinks [bond.NumPaths]*link.Link
	reorder *bond.Reorder
}

// setupBond builds the second radio chain over the competing operator and
// the bond manager driving both, or returns nil when the run is not
// bonded. The chain's sky is recorded and played as the primary's is, over
// the competing operator and from its own named rng streams ("cell2",
// "uplink2"), so a bonded run stays a pure function of (Config, Seed).
// Scripted faults scope per chain: @p1 windows silence only the primary,
// @p2 only the secondary, unscoped windows (the vehicle sitting in a
// coverage hole) silence both. The second chain is built on b's second
// chain, which the first bonded run on b makes.
func setupBond(s *sim.Simulator, cfg Config, res *Result, uplink *link.Link, b *runBuffers, prof flight.Profile, stateAt func(time.Duration) flight.State, dur time.Duration, flushStale bool) *bondPaths {
	if !cfg.Bond.Enabled() || cfg.Workload != WorkloadVideo {
		return nil
	}
	op2 := cell.P2
	if cfg.Op == cell.P2 {
		op2 = cell.P1
	}
	if b.second == nil {
		b.second = new(chain)
	}
	k2 := b.second.sky.record(cfg, op2, s.Stream("cell2"), b.second, stateAt, dur, 0)
	b.second.play.play(k2, s, &b.second.machine, res.Trace, obs.DirUp2)
	prof2 := link.ProfileFor(cfg.Env, op2)
	prof2.AQM = cfg.AQM
	uplink2 := &b.second.uplink
	uplink2.Reset(s, prof2, &b.second.machine, nil, s.Stream("uplink2"))
	uplink2.SetFlight(prof)
	if res.Trace != nil {
		uplink2.SetTracer(res.Trace, obs.DirUp2)
	}
	if cfg.Faults.Enabled() {
		uplink2.SetFaults(fault.NewPathLine(cfg.Faults.Windows, fault.Uplink, fault.PathSecondary), flushStale, cfg.Faults.StaleAfter)
	}

	bp := &bondPaths{mgr: bond.NewManager(cfg.Bond), uplinks: [bond.NumPaths]*link.Link{uplink, uplink2}}
	for i := range bp.uplinks {
		l := bp.uplinks[i]
		bp.mgr.SetOutageProbe(i, l.Interrupted)
	}
	bp.mgr.OnEvent = func(ev bond.Event) {
		switch ev.Kind {
		case bond.EventPathDown:
			res.BondPathDownEvents++
			if res.Trace != nil {
				res.Trace.Emit(obs.Event{T: ev.At, Kind: obs.KindPathDown, Seq: int64(ev.Path), Aux: int64(ev.Cause)})
			}
		case bond.EventPathUp:
			res.BondPathUpEvents++
			if res.Trace != nil {
				res.Trace.Emit(obs.Event{T: ev.At, Kind: obs.KindPathUp, Seq: int64(ev.Path),
					V: float64(ev.DownFor) / float64(time.Millisecond)})
			}
		case bond.EventFailover:
			if res.Trace != nil {
				res.Trace.Emit(obs.Event{T: ev.At, Kind: obs.KindFailover, Seq: int64(ev.From), Aux: int64(ev.To)})
			}
		}
	}
	s.Every(bondTick, bondTick, func() {
		bp.mgr.Tick(s.Now())
		if bp.reorder != nil {
			bp.reorder.Tick(s.Now())
		}
	})
	return bp
}
