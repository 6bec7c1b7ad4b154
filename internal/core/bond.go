package core

import (
	"time"

	"rpivideo/internal/bond"
	"rpivideo/internal/endpoint"
	"rpivideo/internal/link"
	"rpivideo/internal/obs"
	"rpivideo/internal/sim"
)

// bondTick is the bond health monitor's (and reorder buffer's) cadence.
const bondTick = 50 * time.Millisecond

// setupBond builds the bond manager over a bonded run's uplinks, the
// primary's first, with a per-path health monitor and the scheduling
// policy, and starts its tick, which also ticks rcv's reorder buffer for
// striping policies; it returns nil for a run that flies the primary chain
// alone.
func setupBond(s *sim.Simulator, cfg Config, res *Result, uplinks []*link.Link, rcv *endpoint.Receiver) *bond.Manager {
	if len(uplinks) == 1 {
		return nil
	}
	mgr := bond.NewManager(cfg.Bond)
	for i, l := range uplinks {
		mgr.SetOutageProbe(i, l.Interrupted)
	}
	mgr.OnEvent = func(ev bond.Event) {
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
		mgr.Tick(s.Now())
		if r := rcv.Reorder; r != nil {
			r.Tick(s.Now())
		}
	})
	return mgr
}
