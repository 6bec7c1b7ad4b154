package core

import (
	"math/rand"
	"sort"
	"time"

	"rpivideo/internal/bond"
	"rpivideo/internal/cc"
	"rpivideo/internal/cell"
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

// feedback cadences of the two implementations the paper used.
const (
	twccInterval = 50 * time.Millisecond
	ccfbInterval = 10 * time.Millisecond
)

// Run executes one measurement run and returns its aggregated result.
func Run(cfg Config) *Result {
	runsExecuted.Add(1)
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
	uplink := link.New(s, upProfile, machine, stateAt, s.Stream("uplink"))
	downlink := link.New(s, link.FeedbackProfile(), machine, stateAt, s.Stream("downlink"))
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
	bp := setupBond(s, cfg, res, uplink, hoCfg, stateAt, flushStale)

	switch cfg.Workload {
	case WorkloadPing:
		runPing(s, cfg, res, uplink, downlink, stateAt, dur)
	default:
		runVideo(s, cfg, res, machine, uplink, bp, downlink, stateAt, dur)
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

// runVideo wires the RTP video pipeline and runs it to completion. bp is
// the optional bonding state (second access link, health monitor, policy).
func runVideo(s *sim.Simulator, cfg Config, res *Result, machine *cell.Machine, uplink *link.Link, bp *bondPaths, downlink *link.Link, stateAt func(time.Duration) flight.State, dur time.Duration) {
	faultsOn := cfg.Faults.Enabled()
	watchdog := faultsOn && cfg.Faults.Watchdog
	var ctrl cc.Controller
	switch cfg.CC {
	case CCGCC:
		gcfg := gcc.Config{UseTrendline: cfg.GCCTrendline}
		if watchdog {
			gcfg.FeedbackTimeout = cfg.watchdogTimeout()
		}
		ctrl = gcc.New(gcfg)
	case CCSCReAM:
		sccfg := scream.Config{}
		if watchdog {
			sccfg.FeedbackTimeout = cfg.watchdogTimeout()
		}
		ctrl = scream.New(sccfg)
	default:
		ctrl = cc.NewStatic(cfg.staticRate())
	}
	if res.Trace != nil {
		if tc, ok := ctrl.(cc.Traceable); ok {
			tc.SetTracer(res.Trace)
		}
	}
	// rawCtrl is the concrete controller for the type-asserted extensions
	// (RepairAware, the SCReAM counters); bonded runs wrap the rate queries
	// so the encoder target also honors the aggregate path budget.
	rawCtrl := ctrl
	if bp != nil {
		ctrl = cc.NewBonded(ctrl, bp.mgr.Budget)
	}

	scfg := video.DefaultSenderConfig()
	snd := video.NewSender(s, scfg, ctrl, s.Stream("encoder"))
	pcfg := video.DefaultPlayerConfig()
	if cfg.JitterBuffer > 0 {
		pcfg.JitterBuffer = cfg.JitterBuffer
	}
	if cfg.CC == CCSCReAM {
		// Reproduce the player pathology the paper observed with SCReAM at
		// high bitrates (§4.2.2).
		pcfg.LatchQuirk = true
	}
	if cfg.DropOnLatency {
		pcfg.DropOnLatency = true
		pcfg.DropThreshold = cfg.DropThreshold
		if pcfg.DropThreshold == 0 {
			pcfg.DropThreshold = pcfg.JitterBuffer + 100*time.Millisecond
		}
	}
	if faultsOn && cfg.Faults.KeyframeRecovery {
		pcfg.KeyframeRecovery = true
	}
	pl := video.NewPlayer(s, pcfg, video.DefaultSSIMModel(), snd.FrameEncoding)
	pl.SetLatencyHist(res.Telemetry.LogHistogram(TelemetryFrameDelay))
	if res.Trace != nil {
		pl.SetTracer(res.Trace)
	}
	if pcfg.KeyframeRecovery {
		// The receiver's PLI rides the feedback path: it reaches the sender
		// only if the downlink is alive, as a real keyframe request would.
		pl.KeyframeRequest = func() { downlink.Send(kfRequest{}, 40) }
	}

	// The NACK/RTX repair layer (internal/repair): receiver-side loss
	// detector, sender-side retransmission cache and repair budget. All
	// three are driven from this function's clock and callbacks; the
	// package schedules nothing itself, so the disabled path leaves the
	// calibrated runs untouched.
	var (
		det       *repair.Detector
		rtxCache  *repair.Cache
		rtxBudget *repair.Budget
		rcfg      repair.Config
		rtxSeq    uint16
	)
	if cfg.Repair.Enabled {
		rcfg = cfg.Repair.WithDefaults()
		det = repair.NewDetector(rcfg)
		rtxCache = repair.NewCache(rcfg)
		rtxBudget = repair.NewBudget(rcfg)
		det.SetNackRTTHist(res.Telemetry.LogHistogram(TelemetryNackRTT))
		if res.Trace != nil {
			det.SetTracer(res.Trace)
		}
		// Account repair spend against the media target so media plus RTX
		// together honor the congested rate (cc.RepairAware).
		if ra, ok := rawCtrl.(cc.RepairAware); ok {
			ra.SetRepairSpend(rtxBudget.SpendRate)
		}
	}

	snd.Transmit = func(p *rtp.Packet, size int) {
		if rtxCache != nil {
			rtxCache.Store(p, s.Now())
		}
		if bp == nil {
			uplink.Send(p, size)
			return
		}
		set := bp.mgr.Route(s.Now(), size)
		for i := 0; i < bond.NumPaths; i++ {
			if set.Has(i) {
				bp.uplinks[i].Send(p, size)
			}
		}
	}

	if det != nil {
		// Receiver-side NACK scheduler: losses past the reorder tolerance
		// whose (backed-off) retry timer has expired are batched into one
		// RFC 4585 Generic NACK on the feedback path.
		s.Every(rcfg.TickInterval, rcfg.TickInterval, func() {
			seqs := det.Tick(s.Now())
			if len(seqs) == 0 {
				return
			}
			n := &rtp.NACK{SenderSSRC: 1, MediaSSRC: scfg.SSRC, Pairs: rtp.NackPairs(seqs)}
			buf, err := n.Marshal()
			if err != nil {
				return
			}
			res.NacksSent++
			if res.Trace != nil {
				res.Trace.Emit(obs.Event{T: s.Now(), Kind: obs.KindNack, Dir: obs.DirDown,
					Flags: obs.FlagCtrl, Seq: int64(seqs[0]), Aux: int64(len(seqs))})
			}
			downlink.Send(nackBuf(buf), len(buf))
		})
	}

	// RFC 3550 sender/receiver reports, as the paper's pipeline logs them:
	// the sender emits an SR once per second on the media path; the
	// receiver answers with an RR carrying loss, extended-highest, the
	// §A.8 interarrival jitter and the LSR/DLSR pair the sender turns into
	// an RTT sample.
	recStats := rtp.NewReceptionStats(scfg.SSRC, rtp.VideoClockRate)
	var lastSRMid uint32
	var lastSRAt time.Duration
	s.Every(time.Second, time.Second, func() {
		sr := &rtp.SenderReport{
			SSRC:        scfg.SSRC,
			NTPTime:     s.Now(),
			RTPTime:     uint32(uint64(s.Now()) * rtp.VideoClockRate / uint64(time.Second)),
			PacketCount: uint32(snd.PacketsSent),
			OctetCount:  uint32(snd.BytesSent),
		}
		if buf, err := sr.Marshal(); err == nil {
			// Control-plane send: the SR shares the media bearer (loss,
			// queueing, serialization) but stays out of the media
			// Sent/Lost/Overflows so res.PER remains media-only, matching
			// the paper's §4.1 PER of 0.06–0.07%.
			uplink.SendControl(buf, len(buf))
		}
	})
	s.Every(1500*time.Millisecond, time.Second, func() {
		block := recStats.Block()
		if lastSRAt > 0 {
			block.LastSR = lastSRMid
			block.DelaySinceLastSR = uint32((s.Now() - lastSRAt) * 65536 / time.Second)
		}
		rr := &rtp.ReceiverReport{SSRC: 1, Blocks: []rtp.ReportBlock{block}}
		res.JitterMs.Add(float64(recStats.Jitter()) / float64(time.Millisecond))
		if buf, err := rr.Marshal(); err == nil {
			downlink.Send(rtcpBuf(buf), len(buf))
		}
	})

	// Receiver-side feedback generation.
	var twccRec *rtp.TWCCRecorder
	var ccfbGen *rtp.CCFBGenerator
	switch cfg.CC {
	case CCGCC:
		twccRec = rtp.NewTWCCRecorder(1, scfg.SSRC)
		s.Every(twccInterval, twccInterval, func() {
			fb := twccRec.Flush()
			if fb == nil {
				return
			}
			buf, err := fb.Marshal()
			if err != nil {
				return // e.g. delta overflow across a very long outage
			}
			downlink.Send(buf, len(buf))
		})
	case CCSCReAM:
		window := cfg.ScreamAckWindow
		if window == 0 {
			// The authors raised the Ericsson library's 64-packet window to
			// 256 for the campaign (§4.2.1); 64 remains available for the
			// ablation.
			window = 256
		}
		ccfbGen = rtp.NewCCFBGenerator(1, scfg.SSRC, window)
		interval := cfg.ScreamFeedbackInterval
		if interval == 0 {
			interval = ccfbInterval
		}
		s.Every(interval, interval, func() {
			fb := ccfbGen.Report(s.Now())
			if fb == nil {
				return
			}
			buf, err := fb.Marshal()
			if err != nil {
				return
			}
			downlink.Send(buf, len(buf))
		})
	}

	// Per-second goodput accounting and optional full series. The counter
	// is a slice indexed by arrival second (RunUntil guarantees at ≤ dur),
	// not a map: the packet path pays an add, not a hash. With multipath,
	// only the first copy of each packet counts; the duplicate is
	// discarded at the receiver.
	goodputBytes := make([]int, int(dur/time.Second)+1)
	addGoodput := func(at time.Duration, size int) {
		if sec := int(at / time.Second); sec >= 0 && sec < len(goodputBytes) {
			goodputBytes[sec] += size
		}
	}
	var owdPts []metrics.Point
	var seen *multipathDedup
	var reorder *bond.Reorder
	var suppressed [bond.NumPaths]int64
	if bp != nil {
		// Deduplication is always on for bonded runs: the duplicate policy
		// sends full copies, and every other policy still duplicates probe
		// packets onto idle paths.
		seen = newMultipathDedup()
		if bp.mgr.Policy() != bond.PolicyDuplicate {
			// Striping policies interleave paths of different latency; the
			// bounded reorder buffer re-serializes for the player. The
			// duplicate policy plays the first copy and needs none.
			bcfg := bp.mgr.Config()
			reorder = bond.NewReorder(bcfg.ReorderDeadline, bcfg.ReorderCap, func(meta interface{}, now time.Duration) {
				pl.OnPacket(meta.(*rtp.Packet), now)
			})
			reorder.OnLate = func(ext int64, now time.Duration) {
				if res.Trace != nil {
					res.Trace.Emit(obs.Event{T: now, Kind: obs.KindReorderDrop, Seq: ext})
				}
			}
			bp.reorder = reorder
		}
	}
	deliver := func(path int, meta any, size int, sentAt, at time.Duration) {
		if buf, ok := meta.([]byte); ok {
			// A sender report on the media path.
			var sr rtp.SenderReport
			if err := sr.Unmarshal(buf); err == nil {
				lastSRMid = uint32(sr.NTPTime * 65536 / time.Second)
				lastSRAt = at
			}
			return
		}
		p := meta.(*rtp.Packet)
		if det != nil && p.Header.PayloadType == rcfg.RtxPayloadType {
			// An RFC 4588 retransmission: restore the original packet and
			// hand it to the player iff its loss is still open. RTX stays
			// invisible to the congestion-control feedback (no TWCC/CCFB
			// recording) — the budget already charged it to the target.
			orig, osn, err := rtp.UnwrapRTX(p, scfg.SSRC, scfg.PayloadType)
			if err != nil || !det.OnRepair(osn, at) {
				return // malformed, duplicate, or already healed/abandoned
			}
			if seen != nil {
				seen.Mark(osn)
			}
			addGoodput(at, size)
			pl.OnRepairedPacket(orig, at)
			return
		}
		if bp != nil {
			// Per-path health observation (delivery RTT, loss decay, rate),
			// fed pre-dedup so probe duplicates keep an idle path's
			// estimate warm.
			bp.mgr.ObserveDelivery(path, at-sentAt, size)
		}
		var ext int64
		if seen != nil {
			var dup bool
			if ext, dup = seen.DuplicateExt(p.Header.SequenceNumber); dup {
				suppressed[path]++
				return
			}
		}
		owd := at - sentAt
		ms := float64(owd) / float64(time.Millisecond)
		res.OWDms.Add(ms)
		res.OWDByAlt[BucketFor(stateAt(sentAt).Alt)].Add(ms)
		if cfg.KeepSeries {
			owdPts = append(owdPts, metrics.Point{T: at, V: ms})
		}
		addGoodput(at, size)
		recStats.Record(p.Header.SequenceNumber, p.Header.Timestamp, at)
		if det != nil {
			det.OnPacket(p.Header.SequenceNumber, at)
		}
		if reorder != nil {
			// Striped paths interleave: the buffer re-serializes, releasing
			// to the player in extended-sequence order under its deadline.
			// Feedback and delay metrics above stay at first-arrival time.
			reorder.Insert(ext, p, at)
		} else {
			pl.OnPacket(p, at)
		}
		switch cfg.CC {
		case CCGCC:
			if tseq, ok := p.Header.TransportSeq(); ok {
				twccRec.Record(tseq, at)
			}
		case CCSCReAM:
			ccfbGen.Record(p.Header.SequenceNumber, at)
		}
	}
	uplink.Deliver = func(meta any, size int, sentAt, at time.Duration) {
		deliver(0, meta, size, sentAt, at)
	}
	if cfg.KeepSeries || bp != nil {
		uplink.OnDrop = func(meta any, size int, sentAt time.Duration, reason link.DropReason) {
			if cfg.KeepSeries {
				res.LossTimes = append(res.LossTimes, sentAt)
			}
			if bp != nil {
				bp.mgr.ObserveLoss(0)
			}
		}
	}
	if bp != nil {
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

	// Sender-side feedback consumption. ackScratch and ccfb are reused across
	// reports: no controller (nor cc.Bonded) keeps the acks slice past
	// OnFeedback, and CCFB.Unmarshal refills the struct it is called on.
	var ackScratch []cc.Ack
	var ccfb rtp.CCFB
	downlink.Deliver = func(meta any, size int, sentAt, at time.Duration) {
		if _, ok := meta.(kfRequest); ok {
			snd.ForceKeyframe()
			return
		}
		if nb, ok := meta.(nackBuf); ok {
			if rtxCache == nil {
				return
			}
			var n rtp.NACK
			if err := n.Unmarshal([]byte(nb)); err != nil {
				return
			}
			for _, seq := range n.Seqs() {
				orig := rtxCache.Lookup(seq, at)
				if orig == nil {
					continue // evicted, aged out, or resent to the cap
				}
				rtxSeq++
				rtxPkt := rtp.WrapRTX(orig, rcfg.RtxSSRC, rcfg.RtxPayloadType, rtxSeq)
				size := rtxPkt.MarshalSize()
				if !rtxBudget.Allow(at, size, ctrl.TargetBitrate(at)) {
					continue // budget empty: degrade to the PLI path
				}
				res.RtxBytes += size
				if res.Trace != nil {
					res.Trace.Emit(obs.Event{T: at, Kind: obs.KindRTX, Dir: obs.DirUp,
						Flags: obs.FlagRTX, Seq: int64(seq), Aux: int64(size)})
				}
				uplink.SendRTX(rtxPkt, size)
			}
			return
		}
		if rb, ok := meta.(rtcpBuf); ok {
			var rr rtp.ReceiverReport
			if err := rr.Unmarshal([]byte(rb)); err == nil && len(rr.Blocks) == 1 {
				b := rr.Blocks[0]
				if b.LastSR != 0 {
					lsr := time.Duration(b.LastSR) * time.Second / 65536
					dlsr := time.Duration(b.DelaySinceLastSR) * time.Second / 65536
					if rtt := at - lsr - dlsr; rtt > 0 {
						res.RTCPRTTms.Add(float64(rtt) / float64(time.Millisecond))
					}
				}
			}
			return
		}
		buf := meta.([]byte)
		switch cfg.CC {
		case CCGCC:
			var fb rtp.TWCC
			if err := fb.Unmarshal(buf); err != nil {
				return
			}
			acks := ackScratch[:0]
			for i, p := range fb.Packets {
				tseq := fb.BaseSeq + uint16(i)
				a := cc.Ack{TransportSeq: tseq, Received: p.Received, ArrivalTime: p.At}
				if rec, ok := snd.LookupTransport(tseq); ok {
					a.Seq, a.Size, a.SendTime = rec.Seq, rec.Size, rec.SendTime
				}
				acks = append(acks, a)
			}
			ackScratch = acks
			ctrl.OnFeedback(at, acks)
		case CCSCReAM:
			if err := ccfb.Unmarshal(buf); err != nil {
				return
			}
			for _, rep := range ccfb.Reports {
				acks := ackScratch[:0]
				for i, m := range rep.Metrics {
					seq := rep.BeginSeq + uint16(i)
					a := cc.Ack{Seq: seq, Received: m.Received}
					if m.Received {
						a.ArrivalTime = ccfb.Timestamp - m.ArrivalOffset
					}
					if rec, ok := snd.LookupSeq(seq); ok {
						a.TransportSeq, a.Size, a.SendTime = rec.TransportSeq, rec.Size, rec.SendTime
					}
					acks = append(acks, a)
				}
				ackScratch = acks
				ctrl.OnFeedback(at, acks)
			}
		}
		snd.Kick()
	}

	// Target-rate sampling: ramp-up detection, optional series, and — with
	// faults armed — the per-episode recovery and post-outage queue metrics.
	// Everything fault-related is gated on faultsOn: sampling QueueDelay
	// advances the link's capacity process, so touching it here would
	// perturb the calibrated no-fault runs.
	var targetPts []metrics.Point
	type recoveryTrack struct {
		ep        fault.Episode
		preRate   float64
		recovered bool
	}
	var (
		episodes   []fault.Episode
		tracks     []*recoveryTrack
		scripted   []fault.Episode
		scriptIdx  int
		rlfSeen    int
		lastTarget float64
	)
	if faultsOn {
		for _, w := range cfg.Faults.Windows {
			if w.Start >= dur || w.Loss || w.Path == fault.PathSecondary {
				// Loss fades erase packets without interrupting service, so
				// they are not outage episodes and need no recovery
				// tracking. Secondary-path windows stay off the episode
				// timeline too: it is primary-centric, and a bonded run's
				// whole point is that the stream does not treat a standby
				// outage as its own.
				continue
			}
			end := w.End()
			if end > dur {
				end = dur
			}
			scripted = append(scripted, fault.Episode{Start: w.Start, End: end, Kind: fault.KindScripted, Dir: w.Dir})
		}
		episodes = append(episodes, scripted...)
	}
	// collectRLFs folds newly declared radio-link failures into the episode
	// timeline (and, while the run is live, into the recovery tracking).
	collectRLFs := func(track bool) {
		evs := machine.RLFEvents()
		for ; rlfSeen < len(evs); rlfSeen++ {
			ev := evs[rlfSeen]
			kind := fault.KindRLF
			if ev.Cause == cell.RLFHandoverFailure {
				kind = fault.KindHandoverFailure
			}
			end := ev.At + ev.Outage
			if end > dur {
				end = dur
			}
			ep := fault.Episode{Start: ev.At, End: end, Kind: kind}
			episodes = append(episodes, ep)
			if track {
				tracks = append(tracks, &recoveryTrack{ep: ep, preRate: lastTarget})
			}
		}
	}
	s.Every(0, 100*time.Millisecond, func() {
		now := s.Now()
		t := ctrl.TargetBitrate(now)
		if cfg.KeepSeries {
			targetPts = append(targetPts, metrics.Point{T: now, V: t / 1e6})
		}
		if res.RampUpTo25 == 0 && t >= 24.75e6 {
			res.RampUpTo25 = now
		}
		if !faultsOn {
			return
		}
		if lastTarget == 0 {
			lastTarget = t
		}
		collectRLFs(true)
		for scriptIdx < len(scripted) && now >= scripted[scriptIdx].Start {
			tracks = append(tracks, &recoveryTrack{ep: scripted[scriptIdx], preRate: lastTarget})
			scriptIdx++
		}
		var queueMs float64
		queueSampled := false
		for _, tr := range tracks {
			if now < tr.ep.End {
				continue
			}
			if now-tr.ep.End <= 5*time.Second {
				if !queueSampled {
					queueSampled = true
					// The advancing variant: this probe is part of the
					// simulated system, and sampling here has always stepped
					// the capacity process — switching to the pure QueueDelay
					// would change every fault campaign's realization (and
					// golden trace).
					queueMs = float64(uplink.SampleQueueDelay()) / float64(time.Millisecond)
				}
				if queueMs > res.PostOutageQueueMs {
					res.PostOutageQueueMs = queueMs
				}
			}
			if !tr.recovered && t >= 0.8*tr.preRate {
				tr.recovered = true
				res.RecoveryMs.Add(float64(now-tr.ep.End) / float64(time.Millisecond))
			}
		}
		lastTarget = t
	})

	snd.Start()
	s.RunUntil(dur)
	if reorder != nil {
		// Hand the player whatever the buffer still holds before the run's
		// accounting closes.
		reorder.Flush(dur)
	}
	snd.Stop()
	pl.Stop()

	// Fold the player's view into the result.
	res.FPS = *pl.FPSDist(dur)
	res.PlaybackMs = *pl.LatencyDist()
	res.SSIM = *pl.SSIMDist()
	res.Stalls = pl.Stalls
	res.StallsPerMin = pl.StallsPerMinute(dur)
	for _, f := range pl.Frames {
		if f.Skipped {
			res.FramesSkipped++
		} else {
			res.FramesPlayed++
		}
	}
	secs := int(dur / time.Second)
	var gpPts []metrics.Point
	for sec := 0; sec < secs; sec++ {
		mbps := float64(goodputBytes[sec]*8) / 1e6
		res.Goodput.Add(mbps)
		if cfg.KeepSeries {
			gpPts = append(gpPts, metrics.Point{T: time.Duration(sec) * time.Second, V: mbps})
		}
	}
	if cfg.KeepSeries {
		res.OWDSeries = metrics.NewTimeSeriesFromPoints(owdPts)
		res.TargetSeries = metrics.NewTimeSeriesFromPoints(targetPts)
		res.GoodputSeries = metrics.NewTimeSeriesFromPoints(gpPts)
	}
	if sc, ok := rawCtrl.(*scream.Controller); ok {
		res.ScreamLosses = sc.Losses
		res.ScreamLossesInBand = sc.LossesInBand
		res.ScreamLossesWindow = sc.LossesWindow
		res.ScreamDiscards = sc.QueueDiscards
	}
	if bp != nil {
		res.BondPolicy = bp.mgr.Policy().String()
		res.BondSwitches = bp.mgr.Switches
		if reorder != nil {
			res.BondReorderLate = int(reorder.Late)
			res.BondReorderForced = int(reorder.DeadlineReleases + reorder.CapReleases)
		}
		// Per-path accounting from the manager; MultipathDuplicates stays
		// as the derived compat view (total copies suppressed at the
		// receiver, the old field's meaning exactly).
		for i := 0; i < bond.NumPaths; i++ {
			st := bp.mgr.Stats(i, dur)
			res.BondPaths = append(res.BondPaths, BondPathStats{
				Sent:       st.Sent,
				Delivered:  st.Delivered,
				Lost:       st.Lost,
				Suppressed: suppressed[i],
				DownMs:     float64(st.DownFor) / float64(time.Millisecond),
				Up:         st.Up,
			})
			res.MultipathDuplicates += int(suppressed[i])
		}
	}
	if faultsOn {
		collectRLFs(false)
		sort.Slice(episodes, func(i, j int) bool {
			if episodes[i].Start != episodes[j].Start {
				return episodes[i].Start < episodes[j].Start
			}
			return episodes[i].Kind < episodes[j].Kind
		})
		res.FaultEpisodes = episodes
		res.Outages = len(episodes)
		for _, ep := range episodes {
			res.OutageTotal += ep.Length()
			res.OutageMs.Add(float64(ep.Length()) / float64(time.Millisecond))
		}
		for _, ev := range machine.RLFEvents() {
			if ev.Cause == cell.RLFHandoverFailure {
				res.HandoverFailures++
			} else {
				res.RLFs++
			}
		}
		res.StaleDrops = uplink.StaleDrops
		res.KeyframeRequests = pl.KeyframeRequests
	}
	if cfg.Repair.Enabled {
		res.PacketsRepaired = pl.PacketsRepaired
		res.FramesRepaired = pl.FramesRepaired
		res.RepairLate = det.Late
		res.RepairAbandoned = det.Abandoned
		res.RepairDenied = rtxBudget.Denied
		res.RepairCacheMisses = rtxCache.Misses
		res.RepairBudgetAccrued = rtxBudget.Accrued()
		res.RtxSent = uplink.RtxSent
		res.RtxDelivered = uplink.RtxDelivered
		res.RtxLost = uplink.RtxLost
		res.RtxStaleDrops = uplink.RtxStaleDrops
		res.RtxOverflows = uplink.RtxOverflows
	}
}

// rtcpBuf marks receiver-report bytes on the downlink so they are not
// mistaken for congestion-control feedback.
type rtcpBuf []byte

// kfRequest is the receiver's PLI-style keyframe request on the downlink.
type kfRequest struct{}

// nackBuf marks RFC 4585 Generic NACK bytes on the downlink so they are
// not mistaken for congestion-control feedback.
type nackBuf []byte

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
		res.RTTms.Add(ms)
		res.RTTByAlt[BucketFor(probe.alt)].Add(ms)
	}
	s.Every(0, 50*time.Millisecond, func() {
		uplink.Send(pingProbe{sentAt: s.Now(), alt: stateAt(s.Now()).Alt}, probeSize)
	})
	s.RunUntil(dur)
}
