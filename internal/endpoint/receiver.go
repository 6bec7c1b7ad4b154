package endpoint

import (
	"time"

	"rpivideo/internal/bond"
	"rpivideo/internal/obs"
	"rpivideo/internal/repair"
	"rpivideo/internal/rtp"
	"rpivideo/internal/sim"
	"rpivideo/internal/video"
)

// Deduper is the receiver's first stage on a stream that can arrive in
// several copies. DuplicateExt records a sequence number, reporting its
// extended (unwrapped) value and whether a copy was seen before; Mark
// records one delivered as a retransmission instead. The one implementation
// is core's dedup ring, declared here because core imports this package.
type Deduper interface {
	DuplicateExt(seq uint16) (ext int64, dup bool)
	Mark(seq uint16)
}

// ReceiverConfig parameterizes the receiving end.
type ReceiverConfig struct {
	// SSRC and PayloadType identify the media stream to accept.
	SSRC        uint32
	PayloadType uint8
	// Player is the jitter buffer and playback model. FrameEncoding feeds
	// its quality score from the sender's frame registry where the two ends
	// share a process; nil scores every frame at the model's default rate.
	Player        video.PlayerConfig
	FrameEncoding func(num uint32) (rate, complexity float64, ok bool)
	// TWCC and CCFB select the congestion feedback to return: transport-wide
	// (GCC) and RFC 8888 (SCReAM). A receiver that cannot know its sender's
	// controller sets both and the sender takes the one it understands.
	TWCC, CCFB bool
	// CCFBWindow is the RFC 8888 ack window and CCFBInterval the report
	// cadence; zero picks the paper's 256 packets and 10 ms.
	CCFBWindow   int
	CCFBInterval time.Duration
	// Repair, when Enabled, arms the loss detector and NACK scheduler. It
	// should have passed WithDefaults.
	Repair repair.Config
	// Dedup, when set, suppresses repeat copies (bonded paths). Reorder
	// then re-serializes what striped paths interleave, with the given
	// deadline and capacity (zero picks bond's defaults).
	Dedup           Deduper
	Reorder         bool
	ReorderDeadline time.Duration
	ReorderCap      int
	// Trace receives the NACKs sent and the reorder buffer's late drops, and
	// is passed on to the player and the loss detector.
	Trace *obs.Tracer
}

// Receiver is the receiving end. Media runs down a fixed chain — dedup →
// reception statistics → loss detector → reorder → player, recorded for
// congestion feedback on the way — and three tickers answer on the feedback
// path: the NACK scheduler, the RFC 3550 receiver report and the TWCC/CCFB
// responder.
type Receiver struct {
	sim *sim.Simulator
	cfg ReceiverConfig

	// Feedback hands a departing RTCP packet to whatever joins the two
	// ends; it must be set before the first Start call. size is what the
	// packet costs on the air (see pliAirSize); a socket ignores it. The
	// datagram is handed over: the callee releases it once the bytes are
	// written, landed or dropped (see rtp's datagram.go).
	Feedback func(d *rtp.Datagram, size int)
	// OnReport, when set, observes the interarrival jitter each receiver
	// report carries.
	OnReport func(jitter time.Duration)

	// Player is the playback model, Detector the loss detector (nil when
	// repair is off) and Reorder the bonded reorder buffer (nil unless
	// configured), exposed for their outputs, counters and telemetry hooks.
	Player   *video.Player
	Detector *repair.Detector
	Reorder  *bond.Reorder

	stats *rtp.ReceptionStats
	// twcc and ccfb are the congestion feedback the receiver keeps; each is
	// in use when cfg.TWCC or cfg.CCFB says so.
	twcc rtp.TWCCRecorder
	ccfb rtp.CCFBGenerator

	// dgrams holds the feedback's slots; the packets below are written
	// into them and reused from report to report, as are seqs.
	dgrams rtp.DatagramPool
	pli    rtp.PLI
	rr     rtp.ReceiverReport
	nack   rtp.NACK
	seqs   []uint16
	// rtx is the media packet the latest retransmission restores, lent to
	// the player for one call; its payload is the retransmission's.
	rtx rtp.Packet

	// The newest sender report, echoed in receiver reports as LSR/DLSR.
	lastSRMid uint32
	lastSRAt  time.Duration

	// The first datagram accepted off a socket anchors the frame-number
	// plausibility check (see plausible).
	anchored bool
	frame0   uint32
	at0      time.Duration

	// NacksSent counts Generic NACK packets sent.
	NacksSent int
}

// NewReceiver builds the receiving end on clock s. The player's playback
// loop is the only timer it registers; the rest wait for the Start calls.
func NewReceiver(s *sim.Simulator, cfg ReceiverConfig) *Receiver {
	r := new(Receiver)
	r.Reset(s, cfg)
	return r
}

// Reset makes r the receiver NewReceiver(s, cfg) builds, registering the
// player's playback loop as NewReceiver does, on the storage it grew: its
// player's (video.Player.Reset), its datagram slots and its congestion
// feedback's, emptied. Every datagram it made is reclaimed, so the stream
// it served must be finished.
func (r *Receiver) Reset(s *sim.Simulator, cfg ReceiverConfig) {
	*r = Receiver{sim: s, cfg: cfg, Player: r.Player, twcc: r.twcc, ccfb: r.ccfb, dgrams: r.dgrams,
		rr:   rtp.ReceiverReport{SSRC: receiverSSRC, Blocks: r.rr.Blocks},
		nack: rtp.NACK{SenderSSRC: receiverSSRC, MediaSSRC: cfg.SSRC, Pairs: r.nack.Pairs[:0]}, seqs: r.seqs[:0]}
	r.dgrams.Reset()
	if r.Player == nil {
		r.Player = new(video.Player)
	}
	r.Player.Reset(s, cfg.Player, video.DefaultSSIMModel(), cfg.FrameEncoding)
	r.Player.SetTracer(cfg.Trace)
	if cfg.Player.KeyframeRecovery {
		// The receiver's PLI rides the feedback path: it reaches the sender
		// only if that path is alive, as a real keyframe request would.
		r.pli = rtp.PLI{SenderSSRC: receiverSSRC, MediaSSRC: cfg.SSRC}
		r.Player.KeyframeRequest = func() {
			if d := r.fill(&r.pli); d != nil {
				r.Feedback(d, pliAirSize)
			}
		}
	}
	if r.rr.Blocks == nil {
		r.rr.Blocks = make([]rtp.ReportBlock, 1)
	}
	r.stats = rtp.NewReceptionStats(cfg.SSRC, rtp.VideoClockRate)
	if cfg.Repair.Enabled {
		r.Detector = repair.NewDetector(cfg.Repair)
		r.Detector.SetTracer(cfg.Trace)
	}
	if cfg.Reorder {
		r.Reorder = bond.NewReorder(cfg.ReorderDeadline, cfg.ReorderCap, func(meta interface{}, now time.Duration) {
			p := meta.(*rtp.Packet)
			r.Player.OnPacket(p, now)
			p.Release() // the buffer's reference, taken in OnMedia
		})
		if cfg.Trace != nil {
			r.Reorder.OnLate = func(ext int64, now time.Duration) {
				cfg.Trace.Emit(obs.Event{T: now, Kind: obs.KindReorderDrop, Seq: ext})
			}
		}
	}
	if cfg.TWCC {
		r.twcc.Reset(receiverSSRC, cfg.SSRC)
	}
	if cfg.CCFB {
		window := cfg.CCFBWindow
		if window == 0 {
			// The authors raised the Ericsson library's 64-packet window to
			// 256 for the campaign (§4.2.1); 64 remains available for the
			// ablation.
			window = 256
		}
		r.ccfb.Reset(receiverSSRC, cfg.SSRC, window)
	}
}

// StartRepair starts the NACK scheduler — the first call of the timer-order
// contract on Sender.StartReports; a no-op when repair is off. Losses past
// the reorder tolerance whose (backed-off) retry timer has expired are
// batched into one RFC 4585 Generic NACK on the feedback path.
func (r *Receiver) StartRepair() {
	if r.Detector == nil {
		return
	}
	tick := r.cfg.Repair.TickInterval
	r.sim.Every(tick, tick, func() {
		now := r.sim.Now()
		seqs := r.Detector.AppendTick(r.seqs[:0], now)
		r.seqs = seqs
		if len(seqs) == 0 {
			return
		}
		r.nack.Pairs = rtp.AppendNackPairs(r.nack.Pairs[:0], seqs)
		d := r.fill(&r.nack)
		if d == nil {
			return
		}
		r.NacksSent++
		if r.cfg.Trace != nil {
			r.cfg.Trace.Emit(obs.Event{T: now, Kind: obs.KindNack, Dir: obs.DirDown,
				Flags: obs.FlagCtrl, Seq: int64(seqs[0]), Aux: int64(len(seqs))})
		}
		r.Feedback(d, len(d.B))
	})
}

// appender is an RTCP packet that serializes into a caller's buffer.
type appender interface {
	AppendTo(dst []byte) ([]byte, error)
}

// fill writes pkt into a datagram slot for Feedback. A packet that cannot
// be serialized — a TWCC report whose receive delta overflows across a very
// long outage — is skipped: fill puts its slot back and returns nil.
func (r *Receiver) fill(pkt appender) *rtp.Datagram {
	d := r.dgrams.Get()
	var err error
	if d.B, err = pkt.AppendTo(d.B); err != nil {
		d.Release()
		return nil
	}
	return d
}

// send fills a slot with pkt and hands it to Feedback at its own length.
func (r *Receiver) send(pkt appender) {
	if d := r.fill(pkt); d != nil {
		r.Feedback(d, len(d.B))
	}
}

// Datagrams reports the receiver's datagram slots.
func (r *Receiver) Datagrams() rtp.PoolStats { return r.dgrams.Stats() }

// StartReports starts the receiver-report clock and then the congestion
// feedback responders — the third call of the timer-order contract on
// Sender.StartReports. The RR answers the sender's SR with loss, extended
// highest sequence, the §A.8 interarrival jitter and the LSR/DLSR pair the
// sender turns into an RTT sample.
func (r *Receiver) StartReports() {
	r.sim.Every(1500*time.Millisecond, time.Second, func() {
		block := r.stats.Block()
		if r.lastSRAt > 0 {
			block.LastSR = r.lastSRMid
			block.DelaySinceLastSR = uint32((r.sim.Now() - r.lastSRAt) * 65536 / time.Second)
		}
		if r.OnReport != nil {
			r.OnReport(r.stats.Jitter())
		}
		r.rr.Blocks[0] = block
		r.send(&r.rr)
	})
	if r.cfg.TWCC {
		r.sim.Every(twccInterval, twccInterval, func() {
			if fb := r.twcc.Flush(); fb != nil {
				r.send(fb)
			}
		})
	}
	if r.cfg.CCFB {
		interval := r.cfg.CCFBInterval
		if interval == 0 {
			interval = ccfbInterval
		}
		r.sim.Every(interval, interval, func() {
			d := r.dgrams.Get()
			var ok bool
			if d.B, ok = r.ccfb.AppendReport(d.B, r.sim.Now()); !ok {
				d.Release()
				return
			}
			r.Feedback(d, len(d.B))
		})
	}
}

// Stop hands the player whatever the reorder buffer still holds and halts
// playback.
func (r *Receiver) Stop() {
	if r.Reorder != nil {
		r.Reorder.Flush(r.sim.Now())
	}
	r.Player.Stop()
}

// OnMedia takes one packet of the media path, typed as the simulator
// carries it, down the receive chain. The packet is lent for the call: the
// caller keeps its reference and may release it once OnMedia returns. A
// packet the reorder buffer holds past the call has a reference of its own
// (see rtp's pool.go).
func (r *Receiver) OnMedia(p *rtp.Packet, at time.Duration) Verdict {
	if r.Detector != nil && p.Header.PayloadType == repair.RtxPayloadType {
		// An RFC 4588 retransmission: restore the original packet and hand
		// it to the player iff its loss is still open. RTX stays invisible
		// to the congestion-control feedback (no TWCC/CCFB recording) — the
		// budget already charged it to the target.
		var osn uint16
		var err error
		if r.rtx, osn, err = rtp.UnwrapRTX(p, r.cfg.SSRC, r.cfg.PayloadType); err != nil {
			return Rejected
		}
		if !r.Detector.OnRepair(osn, at) {
			return Rejected // duplicate, or already healed/abandoned
		}
		if r.cfg.Dedup != nil {
			r.cfg.Dedup.Mark(osn)
		}
		r.Player.OnRepairedPacket(&r.rtx, at)
		return Repaired
	}
	seq := p.Header.SequenceNumber
	var ext int64
	if r.cfg.Dedup != nil {
		var dup bool
		if ext, dup = r.cfg.Dedup.DuplicateExt(seq); dup {
			return Duplicate
		}
	}
	r.stats.Record(seq, p.Header.Timestamp, at)
	if r.Detector != nil {
		r.Detector.OnPacket(seq, at)
	}
	if r.Reorder != nil {
		// Striped paths interleave: the buffer re-serializes, releasing to
		// the player in extended-sequence order under its deadline.
		// Feedback below stays at first-arrival time.
		// The buffer's reference ends when it emits the packet to the
		// player, or here if it turns the packet away as late or a copy.
		p.Retain()
		if !r.Reorder.Insert(ext, p, at) {
			p.Release()
		}
	} else {
		r.Player.OnPacket(p, at)
	}
	if r.cfg.TWCC {
		if tseq, ok := p.Header.TransportSeq(); ok {
			r.twcc.Record(tseq, at)
		}
	}
	if r.cfg.CCFB {
		r.ccfb.Record(seq, at)
	}
	return Fresh
}

// OnDatagram takes one datagram of the media path as a socket delivers it:
// a sender report, a media packet or a retransmission. It is the hostile
// boundary of the receive chain — everything past it trusts its input — so
// it rejects what is not RTP or an SR of the configured stream, what is
// truncated, and media whose frame header is inconsistent or implausible.
// OnDatagram borrows buf for the call: a media packet is parsed into
// storage of its own.
func (r *Receiver) OnDatagram(buf []byte, at time.Duration) Verdict {
	if pt, _, ok := rtp.PeekRTCP(buf); ok {
		var sr rtp.SenderReport
		if pt != rtp.TypeSenderReport || sr.Unmarshal(buf) != nil || sr.SSRC != r.cfg.SSRC {
			return Rejected
		}
		r.lastSRMid = uint32(sr.NTPTime * 65536 / time.Second)
		r.lastSRAt = at
		return Control
	}
	p := new(rtp.Packet)
	if p.Unmarshal(buf) != nil {
		return Rejected
	}
	frame := p.Payload
	switch h := &p.Header; {
	case h.SSRC == r.cfg.SSRC && h.PayloadType == r.cfg.PayloadType:
	case r.Detector != nil && h.SSRC == repair.RtxSSRC && h.PayloadType == repair.RtxPayloadType && len(frame) >= 2:
		frame = frame[2:] // past the original sequence number
	default:
		return Rejected
	}
	meta, err := rtp.ParsePacketMeta(frame)
	if err != nil || meta.Index >= meta.Total || !r.plausible(meta.FrameNum, at) {
		return Rejected
	}
	return r.OnMedia(p, at)
}

// frameSlack is how many frames ahead of its clock-implied number a frame
// may claim to be: generous against clock drift and a late anchor, small
// against the four billion a forged header can claim.
const frameSlack = 256

// plausible bounds a frame number by the clock. The player walks frame
// numbers one at a time, so a forged packet far ahead of the stream would
// have it skip (and record) every number in between. A sender numbers
// frames off its own clock at the playback rate, so measured from the first
// accepted packet a frame cannot be further ahead than the time since then
// allows; frames behind are harmless and pass.
func (r *Receiver) plausible(frame uint32, at time.Duration) bool {
	if !r.anchored {
		r.anchored, r.frame0, r.at0 = true, frame, at
		return true
	}
	ahead := int64(int32(frame - r.frame0))
	return ahead <= int64((at-r.at0)*video.PlaybackFPS/time.Second)+frameSlack
}
