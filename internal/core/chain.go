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

// chain is one radio chain: its signal model and the handover machine over
// it, the sky they record (sky.record), its playback onto the machine and
// its uplink.
type chain struct {
	model   cell.SignalModel
	machine cell.Machine
	sky     sky
	play    playback
	uplink  link.Link
}

// pathRow sets one of a run's radio chains apart: the operator it flies
// (cfg.Op, or with rival the competing one), the named random streams of its
// sky and uplink, so a bonded run stays a pure function of (Config, Seed),
// its uplink's trace direction, and its fault path: a @p1 window silences
// only the primary, @p2 only the second chain, an unscoped one both.
type pathRow struct {
	rival        bool
	cell, uplink string
	dir          obs.Dir
	faults       int
}

// pathRows are a run's radio chains, the primary first; a bonded run flies
// both (bond.NumPaths), every other run the primary alone.
var pathRows = [bond.NumPaths]pathRow{
	{cell: "cell", uplink: "uplink", dir: obs.DirUp, faults: fault.PathPrimary},
	{rival: true, cell: "cell2", uplink: "uplink2", dir: obs.DirUp2, faults: fault.PathSecondary},
}

// op is the operator the row's chain flies under cfg.
func (p *pathRow) op(cfg Config) cell.Operator {
	if !p.rival {
		return cfg.Op
	}
	if cfg.Op == cell.P2 {
		return cell.P1
	}
	return cell.P2
}

// record records into k, on c's storage, the sky of the row's chain over
// the flight stateAt describes (sky.record).
func (p *pathRow) record(k *sky, c *chain, cfg Config, s *sim.Simulator, stateAt func(time.Duration) flight.State, dur, epoch time.Duration) *sky {
	return k.record(cfg, p.op(cfg), s.Stream(p.cell), c, stateAt, dur, epoch)
}

// build makes c the row's radio chain of a run on s: it records the chain's
// sky, unless k is one a fleet's phase 1 recorded, plays it (its ticker
// takes the next timer slot) and resets the uplink over the played machine
// with the operator's profile and cfg.AQM, the flight, the tracer and the
// fault line. It returns the sky it plays.
func (c *chain) build(p *pathRow, s *sim.Simulator, cfg Config, k *sky, prof flight.Profile, stateAt func(time.Duration) flight.State, dur time.Duration, tr *obs.Tracer) *sky {
	if k == nil {
		k = p.record(&c.sky, c, cfg, s, stateAt, dur, 0)
	}
	c.play.play(k, s, &c.machine, tr, p.dir)
	up := link.ProfileFor(cfg.Env, p.op(cfg))
	up.AQM = cfg.AQM
	c.uplink.Reset(s, up, &c.machine, nil, s.Stream(p.uplink))
	c.uplink.SetFlight(prof)
	c.uplink.SetTracer(tr, p.dir)
	if cfg.Faults.Enabled() {
		c.uplink.SetFaults(fault.NewPathLine(cfg.Faults.Windows, fault.Uplink, p.faults), !cfg.Faults.FreezeQueue, cfg.Faults.StaleAfter)
	}
	return k
}
