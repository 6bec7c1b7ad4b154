package endpoint

import (
	"time"

	"rpivideo/internal/cc"
	"rpivideo/internal/gcc"
	"rpivideo/internal/obs"
	"rpivideo/internal/repair"
	"rpivideo/internal/rtp"
	"rpivideo/internal/scream"
	"rpivideo/internal/sim"
	"rpivideo/internal/video"
)

// SenderConfig parameterizes the sending end.
type SenderConfig struct {
	// Video is the encoder and RTP stream identity.
	Video video.SenderConfig
	// CC picks the controller; StaticRate is CCStatic's constant bitrate
	// and GCCTrendline selects GCC's trendline delay estimator.
	CC           CC
	StaticRate   float64
	GCCTrendline bool
	// FeedbackTimeout arms the controller's feedback-starvation watchdog;
	// zero leaves it off.
	FeedbackTimeout time.Duration
	// Repair, when Enabled, arms the retransmission cache and budget that
	// answer NACKs. It should have passed WithDefaults.
	Repair repair.Config
	// PathBudget, when set, caps the controller's rate queries at the
	// aggregate budget of the bonded paths below the sender.
	PathBudget func() float64
	// Trace receives the controller's rate decisions and every RTX sent.
	Trace *obs.Tracer
}

// Sender is the sending end: video.Sender (encoder, packetizer, send queue
// and pacer under the controller) plus what a stream needs beyond media —
// the retransmission cache and repair budget, the RFC 3550 sender report
// clock, and the consumer of everything the receiver sends back.
type Sender struct {
	sim *sim.Simulator
	cfg SenderConfig

	// Video is the media source, exposed for its counters and its frame
	// registry (the simulator's out-of-band channel to the player's quality
	// model). Its Transmit hook belongs to the Sender.
	Video *video.Sender
	// Ctrl is the concrete controller, for the type-asserted extensions
	// (RepairAware, the SCReAM counters); ctrl is what the stream obeys —
	// Ctrl itself, or Ctrl capped by the bonded path budget. gcc and scream
	// are the sender's own controllers, Ctrl when the config picks them.
	Ctrl   cc.Controller
	ctrl   cc.Controller
	gcc    gcc.Controller
	scream scream.Controller
	// Cache and Budget are the repair layer's sending half, nil when repair
	// is off.
	Cache  *repair.Cache
	Budget *repair.Budget

	// Media, RTX and Control hand a departing packet to whatever joins the
	// two ends; all three must be set before the clock runs. Control
	// carries the sender reports, which share the media path. Media and RTX
	// hand over the packet's reference with it: the callee owns it and
	// releases it once the packet has left its hands — marshalled, landed
	// or dropped (see rtp's pool.go). A callee that never releases is
	// correct too; its packets are garbage-collected instead of recycled.
	// Control hands over the datagram, the sender's one slot of it: the
	// callee releases it once the bytes are written, landed or dropped
	// (see rtp's datagram.go); one never released is garbage-collected.
	Media   func(p *rtp.Packet, size int)
	RTX     func(p *rtp.Packet, size int)
	Control func(d *rtp.Datagram)
	// OnRTT, when set, observes each round-trip sample a receiver report's
	// LSR/DLSR pair yields.
	OnRTT func(rtt time.Duration)

	rtxSeq uint16
	// dgrams holds the sender reports' slots.
	dgrams rtp.DatagramPool
	// seqs, the parsed packets and the acks a report becomes are reused
	// across reports: no controller (nor cc.Bonded) keeps the acks slice
	// past OnFeedback, and every Unmarshal refills the struct it is called
	// on. twcc is made at the first TWCC report: only a GCC sender needs it.
	// RFC 8888 reports are read in place (rtp.ParseCCFB).
	seqs []uint16
	rr   rtp.ReceiverReport
	nack rtp.NACK
	pli  rtp.PLI
	acks []cc.Ack
	twcc *rtp.TWCC

	// RtxBytes counts retransmitted wire bytes.
	RtxBytes int
}

// NewSender builds the sending end on clock s. It draws the encoder's
// randomness from the "encoder" stream and schedules nothing until started.
func NewSender(s *sim.Simulator, cfg SenderConfig) *Sender {
	snd := new(Sender)
	snd.Reset(s, cfg)
	return snd
}

// Reset makes s the sender NewSender(clock, cfg) builds, on the storage it
// grew: its media path's (video.Sender.Reset), its datagram slots, its
// feedback decoding and both controllers' windows, emptied. Every packet
// and datagram it made is reclaimed, so the stream it served must be
// finished. The controller cfg does not pick is reset too, to its zero
// config: it keeps nothing of an earlier stream but storage.
func (s *Sender) Reset(clock *sim.Simulator, cfg SenderConfig) {
	*s = Sender{sim: clock, cfg: cfg, Video: s.Video, gcc: s.gcc, scream: s.scream, dgrams: s.dgrams,
		seqs: s.seqs[:0], rr: rtp.ReceiverReport{Blocks: s.rr.Blocks[:0]}, nack: rtp.NACK{Pairs: s.nack.Pairs[:0]},
		acks: s.acks[:0], twcc: s.twcc}
	s.dgrams.Reset()
	var gc gcc.Config
	var sc scream.Config
	switch cfg.CC {
	case CCGCC:
		gc = gcc.Config{UseTrendline: cfg.GCCTrendline, FeedbackTimeout: cfg.FeedbackTimeout}
		s.Ctrl = &s.gcc
	case CCSCReAM:
		sc = scream.Config{FeedbackTimeout: cfg.FeedbackTimeout}
		s.Ctrl = &s.scream
	default:
		s.Ctrl = cc.NewStatic(cfg.StaticRate)
	}
	s.gcc.Reset(gc)
	s.scream.Reset(sc)
	if tc, ok := s.Ctrl.(cc.Traceable); ok && cfg.Trace != nil {
		tc.SetTracer(cfg.Trace)
	}
	s.ctrl = s.Ctrl
	if cfg.PathBudget != nil {
		// Bonded runs wrap the rate queries so the encoder target also
		// honors the aggregate path budget.
		s.ctrl = cc.NewBonded(s.Ctrl, cfg.PathBudget)
	}
	if s.Video == nil {
		s.Video = new(video.Sender)
	}
	s.Video.Reset(clock, cfg.Video, s.ctrl, clock.Stream("encoder"))
	if cfg.CC == CCSCReAM {
		// SCReAM steers on the send queue and discards it (§4.2.1), bonded
		// or not: the queue goes to the controller, not to the wrapper.
		s.scream.SetQueue(s.Video.Queue())
	}
	s.Video.Transmit = s.transmit
	if cfg.Repair.Enabled {
		s.Cache = repair.NewCache(cfg.Repair)
		s.Budget = repair.NewBudget(cfg.Repair)
		// Account repair spend against the media target so media plus RTX
		// together honor the congested rate (cc.RepairAware).
		if ra, ok := s.Ctrl.(cc.RepairAware); ok {
			ra.SetRepairSpend(s.Budget.SpendRate)
		}
	}
}

// TargetBitrate is the rate the encoder is being driven at.
func (s *Sender) TargetBitrate(now time.Duration) float64 { return s.ctrl.TargetBitrate(now) }

// StartReports starts the sender-report clock: one SR per second on the
// media path, as the paper's pipeline logs them.
//
// Timer-order contract. The simulator fires same-instant timers in the order
// they were registered, and the four tickers of a stream do meet: the SR
// clock, the NACK scheduler and the feedback responder all fire on whole
// seconds, each sending a packet and so writing a trace line with that
// timestamp. Their registration order is therefore part of a run's
// byte-identical output, and it interleaves the two ends. Whoever wires a
// pair must call, in this order:
//
//	Receiver.StartRepair, Sender.StartReports, Receiver.StartReports,
//	(any observer tickers of its own,) Sender.Start
//
// core.Run does, and so do the UDP tools for the end they hold.
func (s *Sender) StartReports() {
	s.sim.Every(time.Second, time.Second, func() {
		now := s.sim.Now()
		sr := &rtp.SenderReport{
			SSRC:        s.cfg.Video.SSRC,
			NTPTime:     now,
			RTPTime:     uint32(uint64(now) * rtp.VideoClockRate / uint64(time.Second)),
			PacketCount: uint32(s.Video.PacketsSent),
			OctetCount:  uint32(s.Video.BytesSent),
		}
		d := s.dgrams.Get()
		d.B, _ = sr.AppendTo(d.B) // cannot fail: fixed layout
		s.Control(d)
	})
}

// Datagrams reports the sender's datagram slots.
func (s *Sender) Datagrams() rtp.PoolStats { return s.dgrams.Stats() }

// Start begins the frame clock; the last call of the timer-order contract
// on StartReports.
func (s *Sender) Start() { s.Video.Start() }

// Stop halts the frame clock.
func (s *Sender) Stop() { s.Video.Stop() }

// transmit takes a packet and its reference from the pacer: remember it for
// retransmission (the cache takes a reference of its own), then hand it on.
func (s *Sender) transmit(p *rtp.Packet, size int) {
	if s.Cache != nil {
		s.Cache.Store(p, s.sim.Now())
	}
	s.Media(p, size)
}

// OnDatagram consumes one datagram from the feedback path, routed by RTCP
// packet type and format to the one parser that applies: PLI → keyframe,
// NACK → retransmissions, RR → an RTT sample, and the congestion feedback of
// the configured controller (TWCC for GCC, RFC 8888 for SCReAM) → acks.
// Anything else — not RTCP, truncated, an unknown type, the other
// controller's feedback, a foreign media SSRC — is Rejected untouched.
// OnDatagram borrows buf for the call: everything it keeps is parsed out.
func (s *Sender) OnDatagram(buf []byte, at time.Duration) Verdict {
	pt, format, ok := rtp.PeekRTCP(buf)
	if !ok {
		return Rejected
	}
	switch {
	case pt == rtp.TypePayloadFeedback && format == rtp.FmtPLI:
		if s.pli.Unmarshal(buf) != nil || s.pli.MediaSSRC != s.cfg.Video.SSRC {
			return Rejected
		}
		s.Video.ForceKeyframe()
		return Control
	case pt == rtp.TypeTransportFeedback && format == rtp.FmtNACK:
		return s.onNACK(buf, at)
	case pt == rtp.TypeReceiverReport:
		return s.onReceiverReport(buf, at)
	case pt == rtp.TypeTransportFeedback && format == rtp.FmtTWCC && s.cfg.CC == CCGCC:
		return s.onTWCC(buf, at)
	case pt == rtp.TypeTransportFeedback && format == rtp.FmtCCFB && s.cfg.CC == CCSCReAM:
		return s.onCCFB(buf, at)
	}
	return Rejected
}

// onNACK answers an RFC 4585 Generic NACK with RFC 4588 retransmissions, as
// far as the cache still holds the packets and the budget allows. A
// retransmission is numbered on the RTX stream, and built in a slot of the
// packetizer's pool, only once the budget has granted its size: a denied
// one costs neither a sequence number nor a slot.
func (s *Sender) onNACK(buf []byte, at time.Duration) Verdict {
	n := &s.nack
	if s.Cache == nil || n.Unmarshal(buf) != nil || n.MediaSSRC != s.cfg.Video.SSRC {
		return Rejected
	}
	s.seqs = n.AppendSeqs(s.seqs[:0])
	for _, seq := range s.seqs {
		orig := s.Cache.Lookup(seq, at)
		if orig == nil {
			continue // evicted, aged out, or resent to the cap
		}
		size := rtp.RTXSize(orig)
		if !s.Budget.Allow(at, size, s.ctrl.TargetBitrate(at)) {
			continue // budget empty: degrade to the PLI path
		}
		s.rtxSeq++
		rtx := s.Video.WrapRTX(orig, repair.RtxSSRC, repair.RtxPayloadType, s.rtxSeq)
		s.RtxBytes += size
		if s.cfg.Trace != nil {
			s.cfg.Trace.Emit(obs.Event{T: at, Kind: obs.KindRTX, Dir: obs.DirUp,
				Flags: obs.FlagRTX, Seq: int64(seq), Aux: int64(size)})
		}
		s.RTX(rtx, size)
	}
	return Control
}

// onReceiverReport turns the report's LSR/DLSR pair into an RTT sample.
func (s *Sender) onReceiverReport(buf []byte, at time.Duration) Verdict {
	rr := &s.rr
	if rr.Unmarshal(buf) != nil || len(rr.Blocks) != 1 || rr.Blocks[0].SSRC != s.cfg.Video.SSRC {
		return Rejected
	}
	if b := rr.Blocks[0]; b.LastSR != 0 && s.OnRTT != nil {
		lsr := time.Duration(b.LastSR) * time.Second / 65536
		dlsr := time.Duration(b.DelaySinceLastSR) * time.Second / 65536
		if rtt := at - lsr - dlsr; rtt > 0 {
			s.OnRTT(rtt)
		}
	}
	return Control
}

// onTWCC translates transport-wide feedback into acks for GCC.
func (s *Sender) onTWCC(buf []byte, at time.Duration) Verdict {
	if s.twcc == nil {
		s.twcc = new(rtp.TWCC)
	}
	tw := s.twcc
	if tw.Unmarshal(buf) != nil {
		return Rejected
	}
	acks := s.acks[:0]
	for i, p := range tw.Packets {
		tseq := tw.BaseSeq + uint16(i)
		a := cc.Ack{Received: p.Received, ArrivalTime: p.At}
		if rec, ok := s.Video.LookupTransport(tseq); ok {
			a.Seq, a.Size, a.SendTime = rec.Seq, rec.Size, rec.SendTime
		}
		acks = append(acks, a)
	}
	s.acks = acks
	s.ctrl.OnFeedback(at, acks)
	s.Video.Kick()
	return Control
}

// onCCFB translates RFC 8888 feedback into acks for SCReAM, one OnFeedback
// per report block.
//
// A report re-acknowledges its whole window, so most of its metric blocks
// repeat what an earlier report said. Those are left out: a received packet
// that a previous report already acknowledged since it was last sent, unless
// it is the block's first or last metric or its highest received one. SCReAM
// acted on the first acknowledgement by removing the packet from its
// in-flight table, and only a new send puts it back, which also clears the
// mark (video.Sender.Acked, set by AckSeq); so it would skip the repeat. What it reads from
// the list as a whole — begin_seq, the highest received sequence number, the
// span — comes from the three metrics always kept (cc.Controller.OnFeedback).
//
// The report is read in place: each metric word is decoded where it lies in
// buf, and only the acks kept are written out.
func (s *Sender) onCCFB(buf []byte, at time.Duration) Verdict {
	v, err := rtp.ParseCCFB(buf)
	if err != nil {
		return Rejected
	}
	for b, ok := v.Next(); ok; b, ok = v.Next() {
		last := b.Len() - 1
		top := last // the highest received metric (the first if none is)
		for ; top > 0; top-- {
			if received, _, _ := rtp.DecodeCCFBWord(b.Word(top)); received {
				break
			}
		}
		acks := s.acks[:0]
		for i := 0; i <= last; i++ {
			seq := b.BeginSeq + uint16(i)
			received, _, offset := rtp.DecodeCCFBWord(b.Word(i))
			if received && i != 0 && i != top && i != last && s.Video.Acked(seq) {
				continue
			}
			a := cc.Ack{Seq: seq, Received: received}
			var rec video.SentRecord
			var known bool
			if received {
				a.ArrivalTime = v.Timestamp - offset
				rec, known = s.Video.AckSeq(seq)
			} else {
				rec, known = s.Video.LookupSeq(seq)
			}
			if known {
				a.Size, a.SendTime = rec.Size, rec.SendTime
			}
			acks = append(acks, a)
		}
		s.acks = acks
		s.ctrl.OnFeedback(at, acks)
	}
	s.Video.Kick()
	return Control
}
