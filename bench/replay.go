package main

import (
	"math/rand"
	"runtime"
	"time"

	"rpivideo/internal/bond"
	"rpivideo/internal/cc"
	"rpivideo/internal/cell"
	"rpivideo/internal/core"
	"rpivideo/internal/fault"
	"rpivideo/internal/flight"
	"rpivideo/internal/gcc"
	"rpivideo/internal/link"
	"rpivideo/internal/metrics"
	"rpivideo/internal/obs"
	"rpivideo/internal/repair"
	"rpivideo/internal/rtp"
	"rpivideo/internal/scream"
	"rpivideo/internal/sim"
	"rpivideo/internal/video"
)

// The replay drivers. Each constructs one layer the way internal/core's
// run.go does, feeds it the traced run's inputs through its public API,
// and times that from outside: one span per simulated second, never one
// per call, so the clock reads stay far below the work they bracket.

// replay is the state the drivers share: the traced run, its digested
// trace, the span recorder and the metric map being filled in.
type replay struct {
	cfg  core.Config
	res  *core.Result
	in   *traceInput
	rec  *Recorder
	root int // span all layer replays hang off
	m    map[string]float64
	// busy is each layer's replay time in seconds. Layers that can only be
	// driven through a simulator (link, the video sender and player) are
	// timed against a blank twin — the same events at the same instants
	// with no-op callbacks — and only the difference is theirs.
	busy map[string]float64
}

// perSecond runs fn once per simulated second of the run under one span
// each, all children of a single span for the layer operation, and returns
// the seconds spent inside them.
func (r *replay) perSecond(layer, op string, fn func(from, to time.Duration)) float64 {
	parent := r.rec.Start(layer, op, r.root)
	leaf := op + "/s"
	for from := time.Duration(0); from < r.in.dur; from += time.Second {
		to := from + time.Second
		if to > r.in.dur {
			to = r.in.dur
		}
		id := r.rec.Start(layer, leaf, parent)
		fn(from, to)
		r.rec.End(id)
	}
	r.rec.End(parent)
	return busySeconds(r.rec.Spans()[parent:], layer, leaf)
}

// timed runs fn under one span and returns its seconds.
func (r *replay) timed(parent int, layer, op string, fn func()) float64 {
	id := r.rec.Start(layer, op, parent)
	fn()
	r.rec.End(id)
	s := r.rec.Spans()[id]
	return float64(s.EndNs-s.StartNs) / 1e9
}

// once times a single call under one span off the replay root.
func (r *replay) once(layer, op string, fn func()) float64 { return r.timed(r.root, layer, op, fn) }

// chain schedules fn(0..n-1) on s at the instants at(i), each event
// scheduling the next — the way a link's service loop, a sender's pacer
// and the replay feeds all advance — so the pending set stays as shallow
// as a run's.
func chain(s *sim.Simulator, n int, at func(int) time.Duration, fn func(int)) {
	if n == 0 {
		return
	}
	i := 0
	var next func()
	next = func() {
		fn(i)
		if i++; i < n {
			s.At(at(i), next)
		}
	}
	s.At(at(0), next)
}

// watchdogTimeout is the feedback-starvation timeout the run's controller
// was built with; zero when the fault layer did not arm the watchdog.
func watchdogTimeout(cfg core.Config) time.Duration {
	switch {
	case !cfg.Faults.Enabled() || !cfg.Faults.Watchdog:
		return 0
	case cfg.Faults.WatchdogTimeout > 0:
		return cfg.Faults.WatchdogTimeout
	}
	return 750 * time.Millisecond
}

// paced walks a second's arrivals in step with a periodic receiver task:
// each arrival is handed to each before the first tick at or after it, the
// rest after the last tick. next carries the task's phase between seconds.
func paced(due []arrival, next *time.Duration, every, to time.Duration, each func(arrival), tick func(time.Duration)) {
	i := 0
	for ; *next <= to; *next += every {
		for ; i < len(due) && due[i].at <= *next; i++ {
			each(due[i])
		}
		tick(*next)
	}
	for ; i < len(due); i++ {
		each(due[i])
	}
}

// over returns how much longer the real replay took than its blank twin,
// never less than zero.
func over(wallS, blankS float64) float64 {
	if wallS < blankS {
		return 0
	}
	return wallS - blankS
}

func perOp(seconds float64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return seconds * 1e9 / float64(ops)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// mobility rebuilds the run's flight profile and state lookup, as
// core.setupMobility does.
func mobility(cfg core.Config) (flight.Profile, func(time.Duration) flight.State) {
	var prof flight.Profile
	if cfg.Air {
		prof = flight.StandardFlight()
	} else {
		prof = flight.GroundProfile(6*time.Minute, sim.New(cfg.Seed).Stream("ground"))
	}
	return prof, func(at time.Duration) flight.State {
		st := prof.At(at)
		st.X += cfg.OffsetX
		st.Y += cfg.OffsetY
		return st
	}
}

func otherOperator(op cell.Operator) cell.Operator {
	if op == cell.P1 {
		return cell.P2
	}
	return cell.P1
}

// radio rebuilds one radio chain's handover machine, as core.setupRadio
// (and setupBond for the second chain) does.
func radio(cfg core.Config, op cell.Operator, rng *rand.Rand) (*cell.Machine, cell.HandoverConfig) {
	bss := cfg.Cells
	if bss == nil {
		bss = cell.Deployment(cfg.Env, op, rng)
	}
	model := cell.NewSignalModel(cfg.Env, bss, cell.DefaultSignalConfigFor(cfg.Env), rng)
	hoCfg := cell.DefaultHandoverConfigFor(cfg.Env)
	hoCfg.DAPS = cfg.DAPS
	if cfg.Faults.RLF {
		hoCfg.RLF = cell.DefaultRLFConfig()
	}
	return cell.NewMachine(model, hoCfg, cfg.Air, rng), hoCfg
}

// initialTarget is the controller's target before its first decision.
func initialTarget(cfg core.Config) float64 {
	if cfg.CC != core.CCStatic {
		return 2e6
	}
	if cfg.StaticRate > 0 {
		return cfg.StaticRate
	}
	if cfg.Env == cell.Urban {
		return 25e6
	}
	return 8e6
}

// periodicTasks lists the cadences of the periodic simulator tasks
// core.Run wires for this configuration.
func periodicTasks(cfg core.Config) []time.Duration {
	meas := cell.DefaultHandoverConfigFor(cfg.Env).MeasurementInterval
	tasks := []time.Duration{
		meas,                   // handover machine step
		time.Second / 30,       // encoder frame clock
		5 * time.Millisecond,   // player pump
		time.Second,            // RTCP sender report
		time.Second,            // RTCP receiver report
		100 * time.Millisecond, // target-rate sampler
	}
	switch cfg.CC {
	case core.CCGCC:
		tasks = append(tasks, 50*time.Millisecond) // TWCC flush
	case core.CCSCReAM:
		tasks = append(tasks, 10*time.Millisecond) // RFC 8888 report
	}
	if cfg.Repair.Enabled {
		tasks = append(tasks, cfg.Repair.WithDefaults().TickInterval)
	}
	if cfg.Bond.Enabled() {
		tasks = append(tasks, meas, 50*time.Millisecond) // second chain's machine, bond tick
	}
	return tasks
}

// replaySim drives a bare simulator with the run's event pattern and no-op
// callbacks: the periodic tasks at their cadences and, per link packet, a
// service event that schedules the packet's arrival (so the pending set is
// as deep as the run's was), plus the pacer wake-up of each media packet.
// The event count is modelled from the trace; counting inside internal/sim
// is a later change.
func (r *replay) replaySim() {
	s := sim.New(r.cfg.Seed)
	fired := 0
	noop := func() { fired++ }
	for _, every := range periodicTasks(r.cfg) {
		s.Every(0, every, noop)
	}
	for li := range r.in.sends {
		sends := r.in.sends[li]
		chain(s, len(sends), func(i int) time.Duration { return sends[i].at }, func(i int) {
			fired++
			p := &sends[i]
			if p.arrAt > 0 {
				s.At(p.arrAt, noop)
			}
			if p.media >= 0 && li == linkUp {
				s.At(p.at, noop) // the sender's pacer wake-up
			}
		})
	}
	before := mallocs()
	busy := r.perSecond("sim", "run", func(_, to time.Duration) { s.RunUntil(to) })
	allocs := mallocs() - before
	r.busy["sim"] = busy
	r.m["sim.events"] = float64(fired)
	r.m["sim.ns_per_event"] = perOp(busy, fired)
	r.m["sim.busy_s"] = busy
	if fired > 0 {
		r.m["sim.allocs_per_event"] = float64(allocs) / float64(fired)
	}
}

// stepTimes calls fn at every measurement instant in [from, to).
func stepTimes(every, from, to time.Duration, fn func(time.Duration)) {
	first := (from + every - 1) / every * every
	for at := first; at < to; at += every {
		fn(at)
	}
}

// replayFlight times the mobility lookups the run made: one per handover
// measurement, and per uplink media packet one for the loss model, one for
// the altitude stall model and, when it arrived, one for the altitude
// bucket of its delay.
func (r *replay) replayFlight() {
	prof, _ := mobility(r.cfg)
	meas := cell.DefaultHandoverConfigFor(r.cfg.Env).MeasurementInterval
	chains := 1
	if r.cfg.Bond.Enabled() {
		chains = 2
	}
	ats := 0
	var sink float64
	cur := [numLinks]int{}
	busy := r.perSecond("flight", "at", func(from, to time.Duration) {
		stepTimes(meas, from, to, func(at time.Duration) {
			for c := 0; c < chains; c++ {
				sink += prof.At(at).Alt
				ats++
			}
		})
		for _, li := range []int{linkUp, linkUp2} {
			sends := r.in.sends[li]
			for ; cur[li] < len(sends) && sends[cur[li]].at < to; cur[li]++ {
				p := &sends[cur[li]]
				sink += prof.At(p.at).Alt + prof.At(p.at).Alt
				ats += 2
				if p.arrAt > 0 {
					sink += prof.At(p.at).Alt
					ats++
				}
			}
		}
	})
	runtime.KeepAlive(sink)
	r.busy["flight"] = busy
	r.m["flight.ats"] = float64(ats)
	r.m["flight.ns_per_at"] = perOp(busy, ats)
}

// replayCell steps the run's handover machines (both chains of a bonded
// run) through the flight on their own random streams.
func (r *replay) replayCell() {
	_, stateAt := mobility(r.cfg)
	type chain struct {
		m     *cell.Machine
		every time.Duration
	}
	streams := sim.New(r.cfg.Seed)
	m1, ho1 := radio(r.cfg, r.cfg.Op, streams.Stream("cell"))
	chains := []chain{{m1, ho1.MeasurementInterval}}
	if r.cfg.Bond.Enabled() {
		m2, ho2 := radio(r.cfg, otherOperator(r.cfg.Op), streams.Stream("cell2"))
		chains = append(chains, chain{m2, ho2.MeasurementInterval})
	}
	steps := 0
	busy := r.perSecond("cell", "step", func(from, to time.Duration) {
		for _, c := range chains {
			stepTimes(c.every, from, to, func(at time.Duration) {
				c.m.Step(at, stateAt(at))
				steps++
			})
		}
	})
	r.busy["cell"] = busy
	r.m["cell.steps"] = float64(steps)
	r.m["cell.ns_per_step"] = perOp(busy, steps)
	r.m["cell.busy_s"] = busy
	r.m["cell.handovers"] = float64(len(r.res.Handovers))
	r.m["cell.rlfs"] = float64(r.res.RLFs + r.res.HandoverFailures)
}

// replayLink offers each link the packets the run offered it, at the same
// instants and sizes, on a fresh simulator.
func (r *replay) replayLink() {
	_, stateAt := mobility(r.cfg)
	op2 := otherOperator(r.cfg.Op)
	type spec struct {
		prof   link.Profile
		op     cell.Operator
		stream string
		dir    fault.Direction
		path   int
	}
	specs := [numLinks]spec{
		linkUp:   {link.ProfileFor(r.cfg.Env, r.cfg.Op), r.cfg.Op, "uplink", fault.Uplink, fault.PathPrimary},
		linkDown: {link.FeedbackProfile(), r.cfg.Op, "downlink", fault.Downlink, fault.PathPrimary},
		linkUp2:  {link.ProfileFor(r.cfg.Env, op2), op2, "uplink2", fault.Uplink, fault.PathSecondary},
	}
	var wall, blank float64
	before := mallocs()
	for li, sp := range specs {
		sends := r.in.sends[li]
		if len(sends) == 0 {
			continue
		}
		s := sim.New(r.cfg.Seed)
		machine, _ := radio(r.cfg, sp.op, s.Stream("cell"))
		sp.prof.AQM = r.cfg.AQM && li != linkDown
		l := link.New(s, sp.prof, machine, stateAt, s.Stream(sp.stream))
		if r.cfg.Faults.Enabled() {
			l.SetFaults(fault.NewPathLine(r.cfg.Faults.Windows, sp.dir, sp.path), !r.cfg.Faults.FreezeQueue, r.cfg.Faults.StaleAfter)
		}
		l.Deliver = func(any, int, time.Duration, time.Duration) {}
		chain(s, len(sends), func(i int) time.Duration { return sends[i].at }, func(i int) {
			switch p := &sends[i]; {
			case p.flags&obs.FlagCtrl != 0:
				l.SendControl(nil, p.size)
			case p.flags&obs.FlagRTX != 0:
				l.SendRTX(nil, p.size)
			default:
				l.Send(nil, p.size)
			}
		})
		wall += r.perSecond("link", "packet", func(_, to time.Duration) { s.RunUntil(to) })
	}
	allocs := mallocs() - before
	for li := range specs {
		// The blank twin: one offer event per packet, and a service and an
		// arrival event for each one the traced link delivered.
		sends := r.in.sends[li]
		if len(sends) == 0 {
			continue
		}
		s := sim.New(r.cfg.Seed)
		noop := func() {}
		chain(s, len(sends), func(i int) time.Duration { return sends[i].at }, func(i int) {
			if p := &sends[i]; p.arrAt > 0 {
				s.At(p.at, noop)
				s.At(p.arrAt, noop)
			}
		})
		blank += r.perSecond("bench", "link-blank", func(_, to time.Duration) { s.RunUntil(to) })
	}
	pkts := r.in.linkPackets()
	busy := over(wall, blank)
	r.busy["link"] = busy
	r.m["link.pkts"] = float64(pkts)
	r.m["link.ns_per_pkt"] = perOp(busy, pkts)
	r.m["link.busy_s"] = busy
	if pkts > 0 {
		r.m["link.allocs_per_pkt"] = float64(allocs) / float64(pkts)
	}
	r.m["link.drops_overflow"] = float64(r.in.drops[link.DropOverflow])
	r.m["link.drops_radio"] = float64(r.in.drops[link.DropLoss])
	r.m["link.drops_stale"] = float64(r.in.drops[link.DropStale])
}

// replayPacer times the pacer's departure computation for each media
// packet and replays the feedback-starvation watchdog over the run's
// feedback arrivals.
func (r *replay) replayPacer() {
	var p cc.Pacer
	cur, tc := 0, 0
	initial := initialTarget(r.cfg)
	busy := r.perSecond("cc", "pacer", func(_, to time.Duration) {
		for ; cur < len(r.in.media) && r.in.media[cur].sendAt < to; cur++ {
			m := &r.in.media[cur]
			p.Next(m.sendAt, m.size, 1.15*r.in.targetAt(m.sendAt, initial, &tc))
		}
	})
	r.busy["cc"] = busy
	r.m["cc.pacer_ns_per_pkt"] = perOp(busy, len(r.in.media))

	episodes := 0
	if timeout := watchdogTimeout(r.cfg); timeout > 0 {
		wd := cc.NewWatchdog(timeout)
		for _, ev := range r.in.cc {
			if wd.OnFeedback(ev.at) {
				episodes++
			}
		}
		if wd.Starved(r.in.dur) {
			episodes++
		}
	}
	r.m["cc.watchdog_episodes"] = float64(episodes)
}

// meanTargetMbps averages the controller's decisions.
func (r *replay) meanTargetMbps() float64 {
	if len(r.in.cc) == 0 {
		return 0
	}
	var sum float64
	for _, ev := range r.in.cc {
		sum += ev.target
	}
	return sum / float64(len(r.in.cc)) / 1e6
}

// replayGCC feeds a fresh GCC controller the run's TWCC reports.
func (r *replay) replayGCC() {
	if r.cfg.CC != core.CCGCC {
		return
	}
	c := gcc.New(gcc.Config{UseTrendline: r.cfg.GCCTrendline, FeedbackTimeout: watchdogTimeout(r.cfg)})
	batches, acks := buildAckBatches(r.in, false)
	cur := 0
	var sink float64
	busy := r.perSecond("gcc", "feedback", func(_, to time.Duration) {
		for ; cur < len(batches) && batches[cur].at < to; cur++ {
			b := &batches[cur]
			c.OnFeedback(b.at, b.acks)
			sink += c.TargetBitrate(b.at)
		}
	})
	runtime.KeepAlive(sink)
	overuse := 0
	for _, ev := range r.in.cc {
		if gcc.Signal(ev.detail) == gcc.SignalOveruse {
			overuse++
		}
	}
	r.busy["gcc"] = busy
	r.m["gcc.feedbacks"] = float64(len(r.in.cc))
	r.m["gcc.acks"] = float64(acks)
	r.m["gcc.ns_per_ack"] = perOp(busy, acks)
	r.m["gcc.busy_s"] = busy
	r.m["gcc.overuse_signals"] = float64(overuse)
	r.m["gcc.target_mbps_mean"] = r.meanTargetMbps()
}

// replayScream feeds a fresh SCReAM controller the run's packet departures
// and RFC 8888 reports, interleaved in time as the sender saw them.
func (r *replay) replayScream() {
	if r.cfg.CC != core.CCSCReAM {
		return
	}
	c := scream.New(scream.Config{FeedbackTimeout: watchdogTimeout(r.cfg)})
	c.SetQueue(&cc.SendQueue{})
	batches, acks := buildAckBatches(r.in, true)
	pc, bc := 0, 0
	var sink float64
	busy := r.perSecond("scream", "feedback", func(_, to time.Duration) {
		for {
			sendDue := pc < len(r.in.media) && r.in.media[pc].sendAt < to
			fbDue := bc < len(batches) && batches[bc].at < to
			switch {
			case sendDue && (!fbDue || r.in.media[pc].sendAt <= batches[bc].at):
				m := &r.in.media[pc]
				if c.CanSend(m.sendAt, m.size) {
					sink += c.PacingRate(m.sendAt)
				}
				c.OnPacketSent(cc.SentPacket{TransportSeq: uint16(pc), Seq: uint16(pc), Size: m.size, SendTime: m.sendAt})
				pc++
			case fbDue:
				b := &batches[bc]
				c.OnFeedback(b.at, b.acks)
				sink += c.TargetBitrate(b.at)
				bc++
			default:
				return
			}
		}
	})
	runtime.KeepAlive(sink)
	r.busy["scream"] = busy
	r.m["scream.feedbacks"] = float64(len(r.in.cc))
	r.m["scream.acks"] = float64(acks)
	r.m["scream.ns_per_ack"] = perOp(busy, acks)
	r.m["scream.busy_s"] = busy
	r.m["scream.losses_window"] = float64(r.res.ScreamLossesWindow)
	r.m["scream.losses_inband"] = float64(r.res.ScreamLossesInBand)
	r.m["scream.target_mbps_mean"] = r.meanTargetMbps()
}

// replayMetrics times the distribution types on the run's delay samples:
// the sample-retaining Dist the Result uses, the Sketch campaigns fold
// into, and one Sketch merge.
func (r *replay) replayMetrics() {
	var d metrics.Dist
	cur := 0
	distBusy := r.perSecond("metrics", "dist-add", func(_, to time.Duration) {
		for ; cur < len(r.in.owd) && r.in.owd[cur].at < to; cur++ {
			d.Add(r.in.owd[cur].ms)
		}
		if to >= r.in.dur { // arrivals stamped exactly at the run's end
			for ; cur < len(r.in.owd); cur++ {
				d.Add(r.in.owd[cur].ms)
			}
		}
	})
	var a, b metrics.Sketch
	cur = 0
	sketchBusy := r.perSecond("metrics", "sketch-add", func(_, to time.Duration) {
		for ; cur < len(r.in.owd) && (r.in.owd[cur].at < to || to >= r.in.dur); cur++ {
			if cur%2 == 0 {
				a.Add(r.in.owd[cur].ms)
			} else {
				b.Add(r.in.owd[cur].ms)
			}
		}
	})
	mergeS := r.once("metrics", "sketch-merge", func() { a.Merge(&b) })

	res := r.res
	samples := res.OWDms.N() + res.Goodput.N() + res.FPS.N() + res.PlaybackMs.N() + res.SSIM.N() +
		res.RTTms.N() + res.JitterMs.N() + res.RTCPRTTms.N() + res.OutageMs.N() + res.RecoveryMs.N()
	for i := range res.OWDByAlt {
		samples += res.OWDByAlt[i].N() + res.RTTByAlt[i].N()
	}
	n := len(r.in.owd)
	r.m["metrics.samples"] = float64(samples)
	r.m["metrics.dist_ns_per_add"] = perOp(distBusy, n)
	r.m["metrics.sketch_ns_per_add"] = perOp(sketchBusy, n)
	r.m["metrics.sketch_merge_us"] = mergeS * 1e6
	// The run added every one of its samples to a Dist.
	busy := perOp(distBusy, n) * float64(samples) / 1e9
	r.busy["metrics"] = busy
	r.m["metrics.busy_s"] = busy
}

// replayEmit re-emits the run's events into a fresh tracer.
func (r *replay) replayEmit() {
	tr := obs.New(r.cfg.TraceCap)
	cur := 0
	busy := r.perSecond("obs", "emit", func(_, to time.Duration) {
		for ; cur < len(r.in.events) && (r.in.events[cur].T < to || to >= r.in.dur); cur++ {
			tr.Emit(r.in.events[cur])
		}
	})
	r.busy["obs"] = busy
	r.m["obs.trace_events"] = float64(r.res.Trace.Emitted())
	r.m["obs.emit_ns_per_event"] = perOp(busy, len(r.in.events))
}

// replayBondManager replays the bond manager over the run's per-path
// outcomes: one routing decision per media packet, a delivery or loss
// observation per copy, the health tick, and the outage probes answered
// from the traced outage windows.
func (r *replay) replayBondManager() (busy float64, routes int) {
	mgr := bond.NewManager(r.cfg.Bond)
	paths := [bond.NumPaths]int{linkUp, linkUp2}
	for i, li := range paths {
		spans := r.in.outages[li]
		cur := 0
		mgr.SetOutageProbe(i, func(now time.Duration) bool {
			for cur < len(spans) && spans[cur].to <= now {
				cur++
			}
			return cur < len(spans) && spans[cur].from <= now
		})
	}
	pathOf := func(d obs.Dir) int {
		if d == obs.DirUp2 {
			return 1
		}
		return 0
	}
	cur := 0
	lastMedia := int32(-1)
	tick := 50 * time.Millisecond
	nextTick := tick
	busy = r.perSecond("bond", "manager", func(_, to time.Duration) {
		for ; cur < len(r.in.events) && (r.in.events[cur].T < to || to >= r.in.dur); cur++ {
			ev := &r.in.events[cur]
			for nextTick <= ev.T {
				mgr.Tick(nextTick)
				nextTick += tick
			}
			if (ev.Dir != obs.DirUp && ev.Dir != obs.DirUp2) || ev.Flags != 0 {
				continue
			}
			li, _ := linkOf(ev.Dir)
			switch ev.Kind {
			case obs.KindSend:
				if m := r.in.sends[li][ev.Seq].media; m != lastMedia {
					lastMedia = m
					mgr.Route(ev.T, int(ev.Aux))
					routes++
				}
			case obs.KindRecv:
				mgr.ObserveDelivery(pathOf(ev.Dir), time.Duration(ev.V*float64(time.Millisecond)), int(ev.Aux))
			case obs.KindDrop:
				mgr.ObserveLoss(pathOf(ev.Dir))
			}
		}
	})
	return busy, routes
}

// pipelineOut is what the media pipeline replay measured, by stage.
type pipelineOut struct {
	senderWallS, senderBlankS                    float64
	packetizeS, depacketizeS, feedbackS          float64
	playerWallS, playerBlankS                    float64
	cacheS, detectorS, reorderS                  float64
	frames, packets, arrivals, feedbacks, stores int
}

// arrival is one replayed media packet reaching the receiver.
type arrival struct {
	pkt *rtp.Packet
	at  time.Duration
	ext int64 // send-order index
}

// departure is one replayed media packet leaving the sender's pacer.
type departure struct {
	pkt *rtp.Packet
	at  time.Duration
}

// tracedRate is the congestion controller the sender replay runs under: it
// answers rate queries with the traced run's decisions and ignores
// everything else.
type tracedRate struct {
	in      *traceInput
	initial float64
	cursor  int
}

func (t *tracedRate) OnPacketSent(cc.SentPacket)         {}
func (t *tracedRate) OnFeedback(time.Duration, []cc.Ack) {}
func (t *tracedRate) CanSend(time.Duration, int) bool    { return true }
func (t *tracedRate) Name() string                       { return "traced" }
func (t *tracedRate) TargetBitrate(now time.Duration) float64 {
	return t.in.targetAt(now, t.initial, &t.cursor)
}
func (t *tracedRate) PacingRate(now time.Duration) float64 { return 1.15 * t.TargetBitrate(now) }

// frameInfos rebuilds the frames a second's packets were cut from, for
// the packetizer's stand-alone stage.
func frameInfos(deps []departure, fps int) []rtp.FrameInfo {
	var out []rtp.FrameInfo
	for _, d := range deps {
		meta, err := rtp.ParsePacketMeta(d.pkt.Payload)
		if err != nil {
			continue
		}
		if n := len(out); n == 0 || out[n-1].Num != meta.FrameNum {
			out = append(out, rtp.FrameInfo{Num: meta.FrameNum, EncodeTime: meta.EncodeTime, Keyframe: meta.Keyframe,
				RTPTime: uint32(uint64(meta.FrameNum) * rtp.VideoClockRate / uint64(fps))})
		}
		out[len(out)-1].Size += len(d.pkt.Payload) + d.pkt.VirtualPayloadLen
	}
	return out
}

// replayPipeline replays the media path stage by stage, one simulated
// second at a time so only a second's packets are alive at once: the
// sender (encoder, frame registry, send queue and pacer, steered by the
// traced rate decisions), the packetizer on its own, the RTX cache, then at
// the receiver the depacketizer, the feedback recorder, the loss detector,
// the reorder buffer and the player. Each replayed packet takes the traced
// fate — delivered or not, and the one-way delay — of the real media
// packet sent nearest in time. The sender and the player run on
// simulators, so each has a blank twin (see replay.busy).
func (r *replay) replayPipeline() pipelineOut {
	cfg := r.cfg
	var out pipelineOut
	scfg := video.DefaultSenderConfig()
	frameEvery := time.Second / time.Duration(scfg.Encoder.FPS)

	// Sender side.
	ss := sim.New(cfg.Seed)
	snd := video.NewSender(ss, scfg, &tracedRate{in: r.in, initial: initialTarget(cfg)}, ss.Stream("encoder"))
	var departures []departure
	snd.Transmit = func(p *rtp.Packet, _ int) { departures = append(departures, departure{p, ss.Now()}) }
	snd.Start()
	sb := sim.New(cfg.Seed) // the sender's blank twin: frame clock and pacer wake-ups
	sb.Every(0, frameEvery, func() {})
	pk := rtp.NewPacketizer(scfg.SSRC, scfg.PayloadType, scfg.MTU)

	// Receiver side.
	depkt := rtp.NewDepacketizer()
	var twcc *rtp.TWCCRecorder
	var ccfb *rtp.CCFBGenerator
	fbEvery := time.Duration(0)
	switch cfg.CC {
	case core.CCGCC:
		twcc, fbEvery = rtp.NewTWCCRecorder(1, scfg.SSRC), 50*time.Millisecond
	case core.CCSCReAM:
		window := cfg.ScreamAckWindow
		if window == 0 {
			window = 256
		}
		ccfb, fbEvery = rtp.NewCCFBGenerator(1, scfg.SSRC, window), 10*time.Millisecond
		if cfg.ScreamFeedbackInterval > 0 {
			fbEvery = cfg.ScreamFeedbackInterval
		}
	}
	var det *repair.Detector
	var cache *repair.Cache
	rcfg := cfg.Repair.WithDefaults()
	if cfg.Repair.Enabled {
		det, cache = repair.NewDetector(rcfg), repair.NewCache(rcfg)
	}
	var reorder *bond.Reorder
	if cfg.Bond.Enabled() && cfg.Bond.Policy != bond.PolicyDuplicate {
		bcfg := cfg.Bond.WithDefaults()
		reorder = bond.NewReorder(bcfg.ReorderDeadline, bcfg.ReorderCap, func(interface{}, time.Duration) {})
	}
	ps := sim.New(cfg.Seed)
	pcfg := video.DefaultPlayerConfig()
	if cfg.JitterBuffer > 0 {
		pcfg.JitterBuffer = cfg.JitterBuffer
	}
	pcfg.LatchQuirk = cfg.CC == core.CCSCReAM
	pcfg.KeyframeRecovery = cfg.Faults.Enabled() && cfg.Faults.KeyframeRecovery
	pl := video.NewPlayer(ps, pcfg, video.DefaultSSIMModel(), snd.FrameEncoding)
	pb := sim.New(cfg.Seed) // the player's blank twin: feed events and pump cadence
	pb.Every(0, 5*time.Millisecond, func() {})

	parent := r.rec.Start("core", "media-pipeline", r.root)

	var (
		pending  []arrival // sent, not yet arrived; in arrival order
		fate     int       // real media packet cursor
		lastArr  time.Duration
		nextFb   = fbEvery
		nextTick = rcfg.TickInterval
		nextBond = 50 * time.Millisecond
		ext      int64
	)
	for from := time.Duration(0); from < r.in.dur; from += time.Second {
		to := from + time.Second
		if to > r.in.dur {
			to = r.in.dur
		}
		// Sender: this second's frames, encoded, queued and paced out.
		departures = departures[:0]
		before := snd.FramesEncoded
		out.senderWallS += r.timed(parent, "video", "sender/s", func() { ss.RunUntil(to) })
		out.frames += snd.FramesEncoded - before
		out.packets += len(departures)
		chain(sb, len(departures), func(i int) time.Duration { return departures[i].at }, func(int) {})
		out.senderBlankS += r.timed(parent, "bench", "sender-blank/s", func() { sb.RunUntil(to) })
		frames := frameInfos(departures, scfg.Encoder.FPS)
		out.packetizeS += r.timed(parent, "rtp", "packetize/s", func() {
			for _, f := range frames {
				pk.Packetize(f)
			}
		})
		// Each packet takes the fate of the real packet sent nearest to it.
		for _, d := range departures {
			for fate < len(r.in.media)-1 && r.in.media[fate].sendAt < d.at {
				fate++
			}
			if fate < len(r.in.media) {
				if m := &r.in.media[fate]; m.delivered {
					arr := d.at + (m.arrAt - m.sendAt)
					if arr < lastArr {
						arr = lastArr // links deliver in order
					}
					lastArr = arr
					pending = append(pending, arrival{d.pkt, arr, ext})
				}
				if fate < len(r.in.media)-1 {
					fate++
				}
			}
			ext++
		}
		if cache != nil {
			out.stores += len(departures)
			out.cacheS += r.timed(parent, "repair", "cache-store/s", func() {
				for _, d := range departures {
					cache.Store(d.pkt, d.at)
				}
			})
		}

		// Receiver: this second's arrivals, one stage at a time.
		n := 0
		for n < len(pending) && (pending[n].at < to || to >= r.in.dur) {
			n++
		}
		due := pending[:n]
		out.arrivals += n
		out.depacketizeS += r.timed(parent, "rtp", "depacketize/s", func() {
			for _, a := range due {
				if fs, err := depkt.Push(a.pkt, a.at); err == nil && fs.Complete() {
					depkt.Delete(fs.Num)
				}
			}
		})
		if fbEvery > 0 {
			out.feedbackS += r.timed(parent, "rtp", "feedback/s", func() {
				paced(due, &nextFb, fbEvery, to,
					func(a arrival) { recordArrival(twcc, ccfb, a) },
					func(now time.Duration) {
						if feedbackRoundTrip(twcc, ccfb, now) {
							out.feedbacks++
						}
					})
			})
		}
		if det != nil {
			var nacked []uint16
			out.detectorS += r.timed(parent, "repair", "detector/s", func() {
				paced(due, &nextTick, rcfg.TickInterval, to,
					func(a arrival) { det.OnPacket(a.pkt.Header.SequenceNumber, a.at) },
					func(now time.Duration) { nacked = append(nacked, det.Tick(now)...) })
			})
			out.cacheS += r.timed(parent, "repair", "cache-lookup/s", func() {
				for _, seq := range nacked {
					cache.Lookup(seq, to)
				}
			})
		}
		if reorder != nil {
			out.reorderS += r.timed(parent, "bond", "reorder/s", func() {
				paced(due, &nextBond, 50*time.Millisecond, to,
					func(a arrival) { reorder.Insert(a.ext, a.pkt, a.at) },
					reorder.Tick)
			})
		}
		// The player is fed through simulator events, like a link's
		// Deliver callback feeds it in a run.
		arriveAt := func(i int) time.Duration { return due[i].at }
		chain(ps, n, arriveAt, func(i int) { pl.OnPacket(due[i].pkt, due[i].at) })
		out.playerWallS += r.timed(parent, "video", "player/s", func() { ps.RunUntil(to) })
		chain(pb, n, arriveAt, func(int) {})
		out.playerBlankS += r.timed(parent, "bench", "player-blank/s", func() { pb.RunUntil(to) })
		pending = append(pending[:0], pending[n:]...)
	}
	snd.Stop()
	pl.Stop()
	r.rec.End(parent)
	return out
}

func recordArrival(twcc *rtp.TWCCRecorder, ccfb *rtp.CCFBGenerator, a arrival) {
	if twcc != nil {
		if tseq, ok := a.pkt.Header.TransportSeq(); ok {
			twcc.Record(tseq, a.at)
		}
	} else {
		ccfb.Record(a.pkt.Header.SequenceNumber, a.at)
	}
}

// feedbackRoundTrip builds one feedback report, marshals it as the
// receiver does and parses it as the sender does. It reports whether there
// was anything to report.
func feedbackRoundTrip(twcc *rtp.TWCCRecorder, ccfb *rtp.CCFBGenerator, now time.Duration) bool {
	if twcc != nil {
		fb := twcc.Flush()
		if fb == nil {
			return false
		}
		buf, err := fb.Marshal()
		if err != nil {
			return false
		}
		var back rtp.TWCC
		return back.Unmarshal(buf) == nil
	}
	fb := ccfb.Report(now)
	if fb == nil {
		return false
	}
	buf, err := fb.Marshal()
	if err != nil {
		return false
	}
	var back rtp.CCFB
	return back.Unmarshal(buf) == nil
}
