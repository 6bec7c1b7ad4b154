package core

import (
	"math/rand"
	"slices"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/flight"
	"rpivideo/internal/obs"
	"rpivideo/internal/sim"
)

// sky is one radio chain's radio over a flight, recorded before the run and
// played back in it. The handover machine reads the flight and its own
// random stream, never the traffic, so a run needs no machine of its own:
// only the state its links read of one, at the steps where that changes (a
// 360 s urban flight: ≈ 350 of 9 001).
type sky struct {
	cfg       cell.HandoverConfig
	steps     []skyStep
	handovers []cell.Event        // committed, in step order
	rlfs      []cell.RLFEvent     // declared, in step order
	attach    []cell.AttachSample // the serving cell at each epoch's start (fleets)
}

// skyStep is a step that changes the state the links read: the state after
// it, and whether it committed the next of the sky's handovers or RLFs. It
// measures at n·MeasurementInterval.
type skyStep struct {
	state   cell.LinkState
	n       int32
	ho, rlf bool
}

// record fills k, on the storage it holds, with the sky of operator op's
// chain. It builds the deployment (unless cfg.Cells injects a fleet's shared
// one), the signal model and the handover machine on c's storage, drawing
// only from cellRng, and steps the machine from 0 to dur at the measurement
// cadence with no traffic, as the run's ticker would. A positive epoch also
// samples attach.
func (k *sky) record(cfg Config, op cell.Operator, cellRng *rand.Rand, c *chain, stateAt func(time.Duration) flight.State, dur, epoch time.Duration) *sky {
	bss := cfg.Cells
	if bss == nil {
		bss = cell.Deployment(cfg.Env, op, cellRng)
	}
	c.model.Reset(cfg.Env, bss, cell.DefaultSignalConfigFor(cfg.Env), cellRng)
	*k = sky{cfg: cell.DefaultHandoverConfigFor(cfg.Env), steps: k.steps[:0], handovers: k.handovers[:0], rlfs: k.rlfs[:0], attach: k.attach[:0]}
	k.cfg.DAPS = cfg.DAPS
	if cfg.Faults.RLF {
		k.cfg.RLF = cell.DefaultRLFConfig()
	}
	m := &c.machine
	m.Reset(&c.model, k.cfg, cfg.Air, cellRng)

	nEpochs := 0
	if epoch > 0 {
		nEpochs = max(1, int((dur+epoch-1)/epoch))
		k.attach = slices.Grow(k.attach, nEpochs)
	}
	var last cell.LinkState
	every := k.cfg.MeasurementInterval
	for n := int32(0); time.Duration(n)*every <= dur; n++ {
		at := time.Duration(n) * every
		rlfs := len(m.RLFEvents())
		ev := m.Step(at, stateAt(at))
		// An epoch that starts before the next step is attached as this
		// step leaves the machine.
		for len(k.attach) < nEpochs && time.Duration(len(k.attach))*epoch < at+every {
			k.attach = append(k.attach, cell.AttachSample{Cell: m.Serving(), RSRP: m.ServingRSRP()})
		}
		st := skyStep{state: m.Link, n: n, ho: ev != nil, rlf: len(m.RLFEvents()) > rlfs}
		if st.state != last || st.ho || st.rlf {
			last = st.state
			k.steps = append(k.steps, st)
		}
	}
	// The sky keeps its own copies: a fleet's outlive the machine's storage.
	k.handovers = append(k.handovers, m.Events()...)
	k.rlfs = append(k.rlfs, m.RLFEvents()...)
	return k
}

// playback is where the play of a sky stands (play).
type playback struct {
	sampler *targetSampler // the run's, set once it exists: it takes each RLF
	next    int            // the next of the sky's steps
	ho, rlf int            // the handovers and radio-link failures played
}

// play starts playing k onto m, reset to a machine nothing steps. The ticker
// it registers on s, in the timer slot the run's measurement ticker has
// always had, sets at each step the state the links read and traces what
// the step committed to tr under dir.
func (p *playback) play(k *sky, s *sim.Simulator, m *cell.Machine, tr *obs.Tracer, dir obs.Dir) {
	m.Reset(nil, k.cfg, false, nil)
	*p = playback{}
	s.Every(0, k.cfg.MeasurementInterval, func() {
		if p.next == len(k.steps) || time.Duration(k.steps[p.next].n)*k.cfg.MeasurementInterval != s.Now() {
			return
		}
		st := &k.steps[p.next]
		p.next++
		m.Link = st.state
		emit := func(kind obs.Kind, seq, aux int, d time.Duration) {
			if tr != nil {
				tr.Emit(obs.Event{T: s.Now(), Kind: kind, Dir: dir, Seq: int64(seq), Aux: int64(aux), V: float64(d) / float64(time.Millisecond)})
			}
		}
		switch {
		case st.ho:
			ev := k.handovers[p.ho]
			p.ho++
			emit(obs.KindHandover, ev.From, ev.To, ev.HET)
		case st.rlf:
			ev := k.rlfs[p.rlf]
			p.rlf++
			if p.sampler != nil {
				p.sampler.rlf(ev)
			}
			emit(obs.KindRLF, ev.From, int(ev.Cause), ev.Outage)
		}
	})
}
