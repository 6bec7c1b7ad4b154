package core

import (
	"runtime"
	"sync"
	"time"

	"rpivideo/internal/bond"
	"rpivideo/internal/cell"
	"rpivideo/internal/endpoint"
	"rpivideo/internal/fault"
	"rpivideo/internal/flight"
	"rpivideo/internal/link"
	"rpivideo/internal/obs"
	"rpivideo/internal/rtp"
	"rpivideo/internal/sim"
	"rpivideo/internal/video"
)

// Run executes one measurement run and returns its aggregated result, on a
// buffer set from the process's pool (runBuffers).
func Run(cfg Config) *Result {
	return withBuffers(func(b *runBuffers) *Result { return b.run(new(Result), cfg, nil, nil, false) })
}

// runBuffers is what a finished run hands to the next one: the simulator
// (its pending set and random streams), each radio chain's signal model,
// handover machine, recorded sky and uplink, the feedback downlink, the two
// endpoints — and through them the media path's packetizer, send queue,
// sent table, frame registry, player and depacketizer, both datagram pools,
// the congestion feedback's recorder or generator and both controllers —
// and the flight log. A run takes each piece it uses with its Reset, which
// makes it what its package's constructor builds, on the storage it grew,
// so the runs of a process allocate their radio, links and traffic-sized
// storage once between them, not once each. The pool (runPool) decides
// every piece's lifetime; the packages only say how to reset one.
//
// What a run keeps — its Result — never points into runBuffers, so the next
// run cannot change a Result it did not make. A fleet's phase-3 run builds
// its Result on one an earlier UAV's fold is done with (putResult), when the
// pool holds one; every other run builds a new one. A run that panicked may
// have left any buffer half-written: its set never goes back (withBuffers).
type runBuffers struct {
	sim      *sim.Simulator
	primary  chain
	downlink link.Link // the feedback downlink
	// second is the bonded second chain, made by the first bonded run the
	// set serves: a run without bonding never pays for it.
	second *chain
	snd    endpoint.Sender
	rcv    endpoint.Receiver
	log    flightLog
}

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

// bufferPool is a bounded free list of buffer sets, one per process
// (runPool). take hands out a set no live run holds; put gives a finished
// run's set back and keeps at most GOMAXPROCS of them — as many as can run
// at once — letting the rest go. putResult and result do the same for
// spent Results, of which it keeps as many as a campaign at GOMAXPROCS
// workers has between their start and their fold. A mutex and a slice,
// not a sync.Pool: its hits do not depend on when the GC runs, and a kept
// set is live before and after a round alike.
type bufferPool struct {
	mu   sync.Mutex
	free []*runBuffers
	// spent holds Results their fold is done with, for the next runs to be
	// built on; at most 2·GOMAXPROCS+1 of them, the executor's window, so
	// folds that trail the runs by up to a window never make a run build
	// its Result new.
	spent []*Result
}

// runPool is the pool every run takes its buffers from: Run (and so
// RunWithTimeout and the sharded fold's DistRunner), every campaign run and
// both per-UAV phases of RunFleet.
var runPool bufferPool

func (p *bufferPool) take() *runBuffers {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return new(runBuffers)
	}
	b := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return b
}

func (p *bufferPool) put(b *runBuffers) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < runtime.GOMAXPROCS(0) {
		p.free = append(p.free, b)
	}
}

// withBuffers runs job on a set from runPool and gives the set back once
// job has returned. A job that panics never gives its set back; a job a
// watchdog abandoned holds its set until it actually ends.
func withBuffers[T any](job func(b *runBuffers) T) T {
	b := runPool.take()
	out := job(b)
	runPool.put(b)
	return out
}

// DropPooledBuffers lets go of every buffer set and every spent Result the
// pool keeps, so the next run starts on empty storage as the first run of a
// process does. The cost pins call it before each measurement: what a run
// allocates then does not depend on the runs before it.
func DropPooledBuffers() {
	runPool.mu.Lock()
	defer runPool.mu.Unlock()
	clear(runPool.free)
	runPool.free = runPool.free[:0]
	clear(runPool.spent)
	runPool.spent = runPool.spent[:0]
}

// putResult gives the pool a Result its fold is done with: no caller holds
// it and nothing reads it again, so a later run may empty it and build its
// own there (result). RunFleet's phase-3 fold is the one caller, and its
// runs alone take such a Result. A Result a test tap may hold is never kept,
// and with the rtppoison tag none is: it is poisoned and dropped instead, so
// a reader that held it past its fold reads values no run records.
func (p *bufferPool) putResult(r *Result) {
	if r == nil || sampleTap != nil || framesTap != nil || poolTap != nil || datagramTap != nil {
		return
	}
	if poisonSpent {
		r.poison()
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.spent) < 2*runtime.GOMAXPROCS(0)+1 {
		p.spent = append(p.spent, r)
	}
}

// result returns an empty Result: a spent one emptied in place, or a new
// one when the pool holds none.
func (p *bufferPool) result() *Result {
	p.mu.Lock()
	n := len(p.spent)
	if n == 0 {
		p.mu.Unlock()
		return new(Result)
	}
	r := p.spent[n-1]
	p.spent[n-1] = nil
	p.spent = p.spent[:n-1]
	p.mu.Unlock()
	r.reuse()
	return r
}

// simulator returns the set's simulator, reset to seed.
func (b *runBuffers) simulator(seed int64) *sim.Simulator {
	if b.sim == nil {
		b.sim = sim.New(seed)
	} else {
		b.sim.Reset(seed)
	}
	return b.sim
}

// run executes one run on b's buffers and builds its Result on res, which
// is empty: new, or handed out by runPool.result. A fleet's phase 3 hands in
// the UAV's sky, recorded in phase 1, and its capacity share, which scales
// the media uplink; a solo run passes nil for both and records its own sky.
// wire is the differential test's switch: it makes every media packet cross
// the links as marshalled bytes (see connect).
func (b *runBuffers) run(res *Result, cfg Config, k *sky, share func(time.Duration) float64, wire bool) *Result {
	s := b.simulator(cfg.Seed)

	// Mobility.
	prof, stateAt := setupMobility(cfg, s)
	dur := cfg.Duration
	if dur == 0 {
		dur = prof.Duration()
	}

	// Radio access: the primary chain's sky, recorded before any traffic.
	if k == nil {
		k = b.primary.sky.record(cfg, cfg.Op, s.Stream("cell"), &b.primary, stateAt, dur, 0)
	}

	res.Config, res.Duration = cfg, dur
	// Live-telemetry histograms (internal/obs): queue delay and NACK RTT,
	// recorded as the run goes. These are deliberately a separate registry
	// from MetricsRegistry(): the regression gate treats a metric present on
	// only one side as drift, so folding new series into the campaign
	// surface would invalidate every checked-in baseline. Both are created
	// up front so a /metrics scrape always exposes the series.
	if res.Telemetry == nil {
		res.Telemetry = obs.NewRegistry()
		for _, name := range telemetryHists {
			res.Telemetry.LogHistogram(name)
		}
	}
	if cfg.Trace {
		res.Trace = obs.New(cfg.TraceCap)
	}
	machine := &b.primary.machine
	b.primary.play.play(k, s, machine, res.Trace, obs.DirUp)

	upProfile := link.ProfileFor(cfg.Env, cfg.Op)
	upProfile.AQM = cfg.AQM
	uplink, downlink := &b.primary.uplink, &b.downlink
	uplink.Reset(s, upProfile, machine, nil, s.Stream("uplink"))
	downlink.Reset(s, link.FeedbackProfile(), machine, nil, s.Stream("downlink"))
	uplink.SetFlight(prof)
	downlink.SetFlight(prof)
	uplink.SetQueueDelayHist(res.Telemetry.LogHistogram(TelemetryQueueDelay))
	if share != nil {
		// The fleet scheduler's share scales the media uplink only: the
		// feedback downlink is tiny control traffic on an overprovisioned
		// bearer, so contention on it is negligible by design.
		uplink.SetCapacityShare(share)
	}
	if res.Trace != nil {
		uplink.SetTracer(res.Trace, obs.DirUp)
		downlink.SetTracer(res.Trace, obs.DirDown)
	}
	flushStale := !cfg.Faults.FreezeQueue
	if cfg.Faults.Enabled() {
		// The primary chain takes PathAll and @p1-scoped windows; a bonded
		// run's secondary chain takes PathAll and @p2 (setupBond). With no
		// path-scoped windows both take every window.
		uplink.SetFaults(fault.NewPathLine(cfg.Faults.Windows, fault.Uplink, fault.PathPrimary), flushStale, cfg.Faults.StaleAfter)
		downlink.SetFaults(fault.NewPathLine(cfg.Faults.Windows, fault.Downlink, fault.PathPrimary), flushStale, cfg.Faults.StaleAfter)
	}

	// Dual-operator bonding (internal/bond): an independent second radio
	// chain over the competing operator, a per-path health monitor and a
	// scheduling policy. nil for single-path runs.
	bp := setupBond(s, cfg, res, uplink, b, prof, stateAt, dur, flushStale)

	switch cfg.Workload {
	case WorkloadPing:
		runPing(s, cfg, res, uplink, downlink, stateAt, dur)
	default:
		stream(s, cfg, res, b, uplink, bp, downlink, prof, dur, wire)
	}
	// The run has played every step of the sky.
	res.Handovers = append(res.Handovers, k.handovers...)

	// The media counters sum every path's ledger, so a bonded run's count
	// all the copies on the air (duplicate ≈ 2× the unique stream); the
	// unique view is in BondPaths (per-path Delivered − Suppressed). Control
	// and RTX ride the primary chain only.
	paths := []*link.Link{uplink}
	if bp != nil {
		paths = bp.uplinks[:]
	}
	for _, l := range paths {
		m := l.Count(link.Media)
		res.PacketsSent += m.Sent
		res.PacketsDelivered += m.Delivered
		res.PacketsLost += m.Dropped[link.DropLoss]
		res.Overflows += m.Dropped[link.DropOverflow]
		res.AQMDrops += m.Dropped[link.DropAQM]
		res.StaleDrops += m.Dropped[link.DropStale]
	}
	ctrl, rtx := uplink.Count(link.Control), uplink.Count(link.RTX)
	res.CtrlPacketsSent, res.CtrlPacketsDelivered, res.CtrlPacketsLost = ctrl.Sent, ctrl.Delivered, ctrl.Drops()
	res.RtxSent, res.RtxDelivered = rtx.Sent, rtx.Delivered
	res.RtxLost, res.RtxOverflows, res.RtxStaleDrops = rtx.Dropped[link.DropLoss], rtx.Dropped[link.DropOverflow], rtx.Dropped[link.DropStale]
	if res.PacketsSent > 0 {
		res.PER = float64(res.PacketsLost) / float64(res.PacketsSent)
	}
	res.SimEvents, res.SimTimerPeak = s.Scheduled(), s.TimerHighWater()
	return res
}

// setupMobility builds the flight profile and the (possibly origin-shifted)
// state lookup. It consumes exactly the "ground" stream for ground runs and
// nothing for aerial ones; RunFleet's phase 1 relies on that to record a
// UAV's sky outside its run.
func setupMobility(cfg Config, s *sim.Simulator) (flight.Profile, func(time.Duration) flight.State) {
	var prof flight.Profile
	if cfg.Air {
		prof = flight.StandardFlight()
	} else {
		prof = flight.GroundProfile(6*time.Minute, s.Stream("ground"))
	}
	stateAt := func(at time.Duration) flight.State { return prof.At(at) }
	// The closure captures the offsets, not cfg, which would move the whole
	// Config to the heap for every run.
	if dx, dy := cfg.OffsetX, cfg.OffsetY; dx != 0 || dy != 0 {
		stateAt = func(at time.Duration) flight.State {
			st := prof.At(at)
			st.X += dx
			st.Y += dy
			return st
		}
	}
	return prof, stateAt
}

// stream runs the video workload: reset b's two endpoints and flight log,
// join the endpoints through the links (and the bond router, when bp is
// set), attach the accounting, run the clock and fold every counter into
// res. wire is the differential test's switch (see connect).
func stream(s *sim.Simulator, cfg Config, res *Result, b *runBuffers, uplink *link.Link, bp *bondPaths, downlink *link.Link, prof flight.Profile, dur time.Duration, wire bool) {
	snd, rcv := resetEndpoints(s, cfg, res, bp, b)
	rcv.Player.RecordInto(&res.PlaybackMs, &res.SSIM)
	rcv.Player.Stalls = res.Stalls
	var tapFrames func()
	if framesTap != nil {
		var frames []video.PlayedFrame
		rcv.Player.OnFrame = func(f video.PlayedFrame) { frames = append(frames, f) }
		tapFrames = func() { framesTap(res, frames) }
	}
	log := &b.log
	log.reset(res, prof, dur)
	connect(s, cfg, snd, rcv, uplink, downlink, bp, log, wire)
	snd.OnRTT = func(rtt time.Duration) { record(&res.RTCPRTTms, float64(rtt)/float64(time.Millisecond)) }
	rcv.OnReport = func(jitter time.Duration) { record(&res.JitterMs, float64(jitter)/float64(time.Millisecond)) }
	sampler := newTargetSampler(cfg, res, uplink, dur)
	b.primary.play.sampler = sampler

	// Registration order is part of the run's output: the contract is on
	// endpoint.Sender.StartReports, and the target sampler keeps the slot
	// it has always had, between the receiver's tickers and the frame clock.
	rcv.StartRepair()
	snd.StartReports()
	rcv.StartReports()
	s.Every(0, 100*time.Millisecond, func() { sampler.sample(s.Now(), snd.TargetBitrate(s.Now())) })
	snd.Start()
	s.RunUntil(dur)
	snd.Stop()
	rcv.Stop()

	log.fold()
	sampler.fold()
	foldEndpoints(cfg, res, snd, rcv, bp, log, dur)
	if tapFrames != nil {
		tapFrames()
	}
	if poolTap != nil {
		uplinks := []*link.Link{uplink}
		if bp != nil {
			uplinks = bp.uplinks[:]
		}
		poolTap(res, snd, uplinks, wire)
	}
	if datagramTap != nil {
		carried := func(c link.Counts) int { return c.Sent - c.Delivered - c.Drops() }
		datagramTap(res, snd.Datagrams(), rcv.Datagrams(), carried(uplink.Count(link.Control)), carried(downlink.Count(link.Media)))
	}
}

// resetEndpoints translates a run's Config into the two endpoint configs and
// resets b's pair to them, sender first: the receiver's player scores frames
// from the sender's frame registry.
func resetEndpoints(s *sim.Simulator, cfg Config, res *Result, bp *bondPaths, b *runBuffers) (*endpoint.Sender, *endpoint.Receiver) {
	faultsOn := cfg.Faults.Enabled()
	scfg := endpoint.SenderConfig{
		Video:        video.DefaultSenderConfig(),
		CC:           cfg.CC,
		StaticRate:   cfg.staticRate(),
		GCCTrendline: cfg.GCCTrendline,
		Trace:        res.Trace,
	}
	if faultsOn && cfg.Faults.Watchdog {
		scfg.FeedbackTimeout = cfg.watchdogTimeout()
	}
	pcfg := video.DefaultPlayerConfig()
	if cfg.JitterBuffer > 0 {
		pcfg.JitterBuffer = cfg.JitterBuffer
	}
	// Reproduce the player pathology the paper observed with SCReAM at high
	// bitrates (§4.2.2).
	pcfg.LatchQuirk = cfg.CC == CCSCReAM
	if cfg.DropOnLatency {
		pcfg.DropOnLatency = true
		pcfg.DropThreshold = pcfg.JitterBuffer + dropMargin
	}
	pcfg.KeyframeRecovery = faultsOn && cfg.Faults.KeyframeRecovery
	rcfg := endpoint.ReceiverConfig{
		SSRC:         scfg.Video.SSRC,
		PayloadType:  scfg.Video.PayloadType,
		Player:       pcfg,
		TWCC:         cfg.CC == CCGCC,
		CCFB:         cfg.CC == CCSCReAM,
		CCFBWindow:   cfg.ScreamAckWindow,
		CCFBInterval: cfg.ScreamFeedbackInterval,
		Trace:        res.Trace,
	}
	if cfg.Repair.Enabled {
		// Both halves of the NACK/RTX repair layer (internal/repair) are
		// driven from the endpoints' clock and callbacks; the package
		// schedules nothing itself, so the disabled path leaves the
		// calibrated runs untouched.
		scfg.Repair = cfg.Repair.WithDefaults()
		rcfg.Repair = scfg.Repair
	}
	if bp != nil {
		scfg.PathBudget = bp.mgr.Budget
		// Deduplication is always on for bonded runs: the duplicate policy
		// sends full copies, and every other policy still duplicates probe
		// packets onto idle paths.
		rcfg.Dedup = newMultipathDedup()
		// Striping policies interleave paths of different latency; the
		// bounded reorder buffer re-serializes for the player. The
		// duplicate policy plays the first copy and needs none.
		bcfg := bp.mgr.Config()
		rcfg.Reorder = bp.mgr.Policy() != bond.PolicyDuplicate
		rcfg.ReorderDeadline, rcfg.ReorderCap = bcfg.ReorderDeadline, bcfg.ReorderCap
	}
	snd, rcv := &b.snd, &b.rcv
	snd.Reset(s, scfg)
	rcfg.FrameEncoding = snd.Video.FrameEncoding
	rcv.Reset(s, rcfg)
	if det := rcv.Detector; det != nil {
		det.SetNackRTTHist(res.Telemetry.LogHistogram(TelemetryNackRTT))
	}
	if bp != nil {
		bp.reorder = rcv.Reorder
	}
	return snd, rcv
}

// connect joins the two endpoints through the simulated network: media, RTX
// and sender reports up the access link (or, bonded, over the paths the
// router picks), RTCP back down the feedback link, and every delivery and
// drop reported to the flight log and the bond health monitor.
//
// RTCP always crosses as marshalled bytes in an *rtp.Datagram, parsed on
// arrival by Sender.OnDatagram (feedback) or Receiver.OnDatagram (sender
// reports). The media direction carries *rtp.Packet pointers and enters
// through Receiver.OnMedia — unless wire is set, when every packet crosses
// as its marshalled bytes and is re-parsed by Receiver.OnDatagram, which is
// exactly how the UDP tools join the same endpoints through a socket.
// TestWireMatchesSim requires the two to be indistinguishable.
//
// A media packet's reference (see rtp's pool.go) travels with its link copy:
// the sender hands it to media, a bonded fan-out takes one more per extra
// path (or releases it when the router picks none), and each copy's
// reference ends at the link's two exits — after OnMedia returns for a
// landed copy, in OnDrop for a dropped one. A datagram (rtp's datagram.go)
// has one holder and ends at the same two exits: after OnDatagram returns,
// or in OnDrop. link and bond never see either.
func connect(s *sim.Simulator, cfg Config, snd *endpoint.Sender, rcv *endpoint.Receiver, uplink, downlink *link.Link, bp *bondPaths, log *flightLog, wire bool) {
	media := uplink.Send
	if bp != nil {
		media = func(meta any, size int) {
			set := bp.mgr.Route(s.Now(), size)
			// Every reference is taken before the first send: a copy can be
			// dropped, and released, inside Send.
			n := set.Count()
			if n == 0 {
				release(meta)
			}
			for i := 1; i < n; i++ {
				retain(meta)
			}
			for i := 0; i < bond.NumPaths; i++ {
				if set.Has(i) {
					bp.uplinks[i].Send(meta, size)
				}
			}
		}
	}
	if wire {
		snd.Media = endpoint.Marshalled(func(buf []byte) { media(buf, len(buf)) })
		snd.RTX = endpoint.Marshalled(func(buf []byte) { uplink.SendRTX(buf, len(buf)) })
	} else {
		snd.Media = func(p *rtp.Packet, size int) { media(p, size) }
		snd.RTX = func(p *rtp.Packet, size int) { uplink.SendRTX(p, size) }
	}
	// Control-plane send: the SR shares the media bearer (loss, queueing,
	// serialization) but stays out of the media ledger so
	// res.PER remains media-only, matching the paper's §4.1 PER of
	// 0.06–0.07%.
	snd.Control = func(d *rtp.Datagram) { uplink.SendControl(d, len(d.B)) }
	rcv.Feedback = func(d *rtp.Datagram, size int) { downlink.Send(d, size) }
	downlink.Deliver = func(meta any, _ int, _, at time.Duration) {
		d := meta.(*rtp.Datagram)
		snd.OnDatagram(d.B, at)
		d.Release()
	}
	downlink.OnDrop = func(meta any, _ int, _ time.Duration, _ link.Class, _ link.DropReason) {
		release(meta)
	}

	deliver := func(path int, meta any, size int, sentAt, at time.Duration) {
		var v endpoint.Verdict
		switch m := meta.(type) {
		case *rtp.Packet:
			v = rcv.OnMedia(m, at)
			m.Release()
		case *rtp.Datagram: // a sender report
			v = rcv.OnDatagram(m.B, at)
			m.Release()
		case []byte: // with wire set, a media packet
			v = rcv.OnDatagram(m, at)
		}
		if bp != nil && (v == endpoint.Fresh || v == endpoint.Duplicate) {
			// Per-path health observation (delivery RTT, loss decay, rate)
			// of every media copy, duplicates included, so probe copies
			// keep an idle path's estimate warm.
			bp.mgr.ObserveDelivery(path, at-sentAt, size)
		}
		log.delivered(v, path, size, sentAt, at)
	}
	uplink.Deliver = func(meta any, size int, sentAt, at time.Duration) {
		deliver(0, meta, size, sentAt, at)
	}
	uplink.OnDrop = func(meta any, _ int, _ time.Duration, c link.Class, _ link.DropReason) {
		if bp != nil && c == link.Media {
			bp.mgr.ObserveLoss(0)
		}
		release(meta)
	}
	if bp != nil {
		for i := 1; i < bond.NumPaths; i++ {
			i := i
			bp.uplinks[i].Deliver = func(meta any, size int, sentAt, at time.Duration) {
				deliver(i, meta, size, sentAt, at)
			}
			bp.uplinks[i].OnDrop = func(meta any, _ int, _ time.Duration, c link.Class, _ link.DropReason) {
				if c == link.Media {
					bp.mgr.ObserveLoss(i)
				}
				release(meta)
			}
		}
	}
}

// retain and release apply rtp's reference rule to a link copy's meta; the
// marshalled bytes of a wire run carry no reference. A datagram is never
// retained: it has one holder.
func retain(meta any) {
	if p, ok := meta.(*rtp.Packet); ok {
		p.Retain()
	}
}

func release(meta any) {
	switch m := meta.(type) {
	case *rtp.Packet:
		m.Release()
	case *rtp.Datagram:
		m.Release()
	}
}

// pingProbe is the meta carried by Fig. 13 probe packets.
type pingProbe struct {
	sentAt time.Duration
	alt    float64
}

// runPing wires the no-cross-traffic probe workload of Fig. 13: small
// probes up the access link, echoed back over the downlink.
func runPing(s *sim.Simulator, cfg Config, res *Result, uplink, downlink *link.Link, stateAt func(time.Duration) flight.State, dur time.Duration) {
	const probeSize = 125 // ICMP-sized
	uplink.Deliver = func(meta any, size int, sentAt, at time.Duration) {
		downlink.Send(meta, size) // echo
	}
	downlink.Deliver = func(meta any, size int, sentAt, at time.Duration) {
		probe := meta.(pingProbe)
		rtt := at - probe.sentAt
		ms := float64(rtt) / float64(time.Millisecond)
		record(&res.RTTms, ms)
		record(&res.RTTByAlt[BucketFor(probe.alt)], ms)
	}
	s.Every(0, 50*time.Millisecond, func() {
		uplink.Send(pingProbe{sentAt: s.Now(), alt: stateAt(s.Now()).Alt}, probeSize)
	})
	s.RunUntil(dur)
}
