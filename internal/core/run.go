package core

import (
	"math/rand"
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

// Run executes one measurement run and returns its aggregated result.
func Run(cfg Config) *Result { return run(cfg, false) }

// run is Run with the differential test's switch: wire makes every media
// packet cross the links as marshalled bytes (see connect).
func run(cfg Config, wire bool) *Result {
	s := sim.New(cfg.Seed)

	// Mobility.
	prof, stateAt := setupMobility(cfg, s)
	dur := cfg.Duration
	if dur == 0 {
		dur = prof.Duration()
	}

	// Radio access. A fleet run injects its shared deployment via
	// cfg.Cells; solo runs draw a private map from the "cell" stream.
	machine, hoCfg := setupRadio(cfg, s.Stream("cell"))

	res := &Result{Config: cfg, Duration: dur}
	// Live-telemetry histograms (internal/obs). These are deliberately a
	// separate registry from MetricsRegistry(): the regression gate treats a
	// metric present on only one side as drift, so folding new series into
	// the campaign surface would invalidate every checked-in baseline. All
	// four are created up front so a /metrics scrape always exposes the
	// series, even before the first observation.
	res.Telemetry = obs.NewRegistry()
	res.Telemetry.LogHistogram(TelemetryFrameDelay)
	res.Telemetry.LogHistogram(TelemetryNackRTT)
	res.Telemetry.LogHistogram(TelemetryQueueDelay)
	machine.SetInterruptionHist(res.Telemetry.LogHistogram(TelemetryHandoverInterruption))
	if cfg.Trace {
		res.Trace = obs.New(cfg.TraceCap)
		machine.SetTracer(res.Trace, obs.DirUp)
	}
	s.Every(0, hoCfg.MeasurementInterval, func() {
		if ev := machine.Step(s.Now(), stateAt(s.Now())); ev != nil {
			res.Handovers = append(res.Handovers, *ev)
		}
	})

	upProfile := link.ProfileFor(cfg.Env, cfg.Op)
	upProfile.AQM = cfg.AQM
	uplink := link.New(s, upProfile, machine, nil, s.Stream("uplink"))
	downlink := link.New(s, link.FeedbackProfile(), machine, nil, s.Stream("downlink"))
	uplink.SetFlight(prof)
	downlink.SetFlight(prof)
	uplink.SetQueueDelayHist(res.Telemetry.LogHistogram(TelemetryQueueDelay))
	if cfg.CapacityShare != nil {
		// The fleet scheduler's share scales the media uplink only: the
		// feedback downlink is tiny control traffic on an overprovisioned
		// bearer, so contention on it is negligible by design.
		uplink.SetCapacityShare(cfg.CapacityShare)
	}
	if res.Trace != nil {
		uplink.SetTracer(res.Trace, obs.DirUp)
		downlink.SetTracer(res.Trace, obs.DirDown)
	}
	flushStale := !cfg.Faults.FreezeQueue
	if cfg.Faults.Enabled() {
		// The primary chain takes PathAll and @p1-scoped windows; a bonded
		// run's secondary chain takes PathAll and @p2 (setupBond). With no
		// path-scoped windows this is exactly the old NewLine behaviour.
		uplink.SetFaults(fault.NewPathLine(cfg.Faults.Windows, fault.Uplink, fault.PathPrimary), flushStale, cfg.Faults.StaleAfter)
		downlink.SetFaults(fault.NewPathLine(cfg.Faults.Windows, fault.Downlink, fault.PathPrimary), flushStale, cfg.Faults.StaleAfter)
	}

	// Dual-operator bonding (internal/bond): an independent second radio
	// chain over the competing operator, a per-path health monitor and a
	// scheduling policy. nil for single-path runs.
	bp := setupBond(s, cfg, res, uplink, hoCfg, prof, stateAt, flushStale)

	switch cfg.Workload {
	case WorkloadPing:
		runPing(s, cfg, res, uplink, downlink, stateAt, dur)
	default:
		stream(s, cfg, res, machine, uplink, bp, downlink, prof, dur, wire)
	}

	res.PacketsSent = uplink.Sent
	res.PacketsDelivered = uplink.Delivered
	res.PacketsLost = uplink.Lost
	res.Overflows = uplink.Overflows
	res.AQMDrops = uplink.AQMDrops
	if bp != nil {
		// Bonded runs: the radio-level counters sum every path's link, so
		// sent/delivered/lost and PER describe all the copies on the air
		// (duplicate ≈ 2× the unique stream). The unique view is in
		// BondPaths: per-path Delivered − Suppressed. Feedback stays on the
		// primary chain, so the Ctrl counters below are primary-only.
		for i := 1; i < bond.NumPaths; i++ {
			l := bp.uplinks[i]
			res.PacketsSent += l.Sent
			res.PacketsDelivered += l.Delivered
			res.PacketsLost += l.Lost
			res.Overflows += l.Overflows
			res.AQMDrops += l.AQMDrops
		}
	}
	res.CtrlPacketsSent = uplink.CtrlSent
	res.CtrlPacketsDelivered = uplink.CtrlDelivered
	res.CtrlPacketsLost = uplink.CtrlLost
	if res.PacketsSent > 0 {
		res.PER = float64(res.PacketsLost) / float64(res.PacketsSent)
	}
	res.SimEvents, res.SimTimerPeak = s.Scheduled(), s.TimerHighWater()
	return res
}

// setupMobility builds the flight profile and the (possibly origin-shifted)
// state lookup. It consumes exactly the "ground" stream for ground runs and
// nothing for aerial ones; RunFleet's attachment precompute relies on that
// to replay a UAV's mobility byte-identically outside a full run.
func setupMobility(cfg Config, s *sim.Simulator) (flight.Profile, func(time.Duration) flight.State) {
	var prof flight.Profile
	if cfg.Air {
		prof = flight.StandardFlight()
	} else {
		prof = flight.GroundProfile(6*time.Minute, s.Stream("ground"))
	}
	stateAt := func(at time.Duration) flight.State { return prof.At(at) }
	if cfg.OffsetX != 0 || cfg.OffsetY != 0 {
		stateAt = func(at time.Duration) flight.State {
			st := prof.At(at)
			st.X += cfg.OffsetX
			st.Y += cfg.OffsetY
			return st
		}
	}
	return prof, stateAt
}

// setupRadio builds the deployment (unless cfg.Cells injects a shared one),
// signal model and handover machine, drawing only from cellRng. RunFleet's
// attachment precompute calls this with an identically derived stream so
// its offline handover replay consumes exactly the randomness the live run
// does — the basis of the fleet's share determinism.
func setupRadio(cfg Config, cellRng *rand.Rand) (*cell.Machine, cell.HandoverConfig) {
	bss := cfg.Cells
	if bss == nil {
		bss = cell.Deployment(cfg.Env, cfg.Op, cellRng)
	}
	model := cell.NewSignalModel(cfg.Env, bss, cell.DefaultSignalConfigFor(cfg.Env), cellRng)
	hoCfg := cell.DefaultHandoverConfigFor(cfg.Env)
	hoCfg.DAPS = cfg.DAPS
	if cfg.Faults.RLF {
		hoCfg.RLF = cell.DefaultRLFConfig()
	}
	return cell.NewMachine(model, hoCfg, cfg.Air, cellRng), hoCfg
}

// stream runs the video workload: build the two endpoints, join them through
// the links (and the bond router, when bp is set), attach the accounting,
// run the clock and fold every counter into res. wire is the differential
// test's switch (see connect).
func stream(s *sim.Simulator, cfg Config, res *Result, machine *cell.Machine, uplink *link.Link, bp *bondPaths, downlink *link.Link, prof flight.Profile, dur time.Duration, wire bool) {
	snd, rcv := newEndpoints(s, cfg, res, bp)
	log := newFlightLog(res, prof, dur)
	connect(s, cfg, snd, rcv, uplink, downlink, bp, log, wire)
	snd.OnRTT = func(rtt time.Duration) { record(&res.RTCPRTTms, float64(rtt)/float64(time.Millisecond)) }
	rcv.OnReport = func(jitter time.Duration) { record(&res.JitterMs, float64(jitter)/float64(time.Millisecond)) }
	sampler := newTargetSampler(cfg, res, machine, uplink, dur)

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
	foldEndpoints(cfg, res, snd, rcv, uplink, bp, log, dur)
}

// newEndpoints translates a run's Config into the two endpoint configs and
// builds the pair, sender first: the receiver's player scores frames from
// the sender's frame registry.
func newEndpoints(s *sim.Simulator, cfg Config, res *Result, bp *bondPaths) (*endpoint.Sender, *endpoint.Receiver) {
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
	snd := endpoint.NewSender(s, scfg)
	rcfg.FrameEncoding = snd.Video.FrameEncoding
	rcv := endpoint.NewReceiver(s, rcfg)
	rcv.Player.SetLatencyHist(res.Telemetry.LogHistogram(TelemetryFrameDelay))
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
// The feedback direction always carries marshalled RTCP, parsed on arrival
// by Sender.OnDatagram. The media direction carries *rtp.Packet pointers and
// enters through Receiver.OnMedia — unless wire is set, when every packet
// crosses as its marshalled bytes and is re-parsed by Receiver.OnDatagram,
// which is exactly how the UDP tools join the same endpoints through a
// socket. TestWireMatchesSim requires the two to be indistinguishable.
func connect(s *sim.Simulator, cfg Config, snd *endpoint.Sender, rcv *endpoint.Receiver, uplink, downlink *link.Link, bp *bondPaths, log *flightLog, wire bool) {
	media := uplink.Send
	if bp != nil {
		media = func(meta any, size int) {
			set := bp.mgr.Route(s.Now(), size)
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
	// serialization) but stays out of the media Sent/Lost/Overflows so
	// res.PER remains media-only, matching the paper's §4.1 PER of
	// 0.06–0.07%.
	snd.Control = func(buf []byte) { uplink.SendControl(buf, len(buf)) }
	rcv.Feedback = func(buf []byte, size int) { downlink.Send(buf, size) }
	downlink.Deliver = func(meta any, _ int, _, at time.Duration) {
		snd.OnDatagram(meta.([]byte), at)
	}

	deliver := func(path int, meta any, size int, sentAt, at time.Duration) {
		var v endpoint.Verdict
		switch m := meta.(type) {
		case *rtp.Packet:
			v = rcv.OnMedia(m, at)
		case []byte: // a sender report; with wire set, everything
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
	if bp != nil {
		uplink.OnDrop = func(any, int, time.Duration, link.DropReason) {
			bp.mgr.ObserveLoss(0)
		}
		for i := 1; i < bond.NumPaths; i++ {
			i := i
			bp.uplinks[i].Deliver = func(meta any, size int, sentAt, at time.Duration) {
				deliver(i, meta, size, sentAt, at)
			}
			bp.uplinks[i].OnDrop = func(any, int, time.Duration, link.DropReason) {
				bp.mgr.ObserveLoss(i)
			}
		}
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
