package video

import (
	"math/rand"
	"time"

	"rpivideo/internal/cc"
	"rpivideo/internal/rtp"
	"rpivideo/internal/sim"
)

// SenderConfig parameterizes the sending half of the pipeline.
type SenderConfig struct {
	Encoder EncoderConfig
	// SSRC and PayloadType identify the RTP stream.
	SSRC        uint32
	PayloadType uint8
	// MTU bounds RTP packet sizes (1200 by default).
	MTU int
}

// DefaultSenderConfig returns the campaign sender parameters.
func DefaultSenderConfig() SenderConfig {
	return SenderConfig{
		Encoder:     DefaultEncoderConfig(),
		SSRC:        0x1234,
		PayloadType: 96,
		MTU:         1200,
	}
}

// SentRecord remembers a sent packet so feedback can be translated into
// cc.Acks.
type SentRecord struct {
	Seq          uint16
	TransportSeq uint16
	// acked is set once a receiver has reported the packet received (see
	// AckSeq); sending the sequence number again stores a fresh record. It
	// sits in what would be padding, so the record stays 24 bytes.
	acked    bool
	Size     int
	SendTime time.Duration
}

// Sender encodes, packetizes and paces the video stream under a congestion
// controller. Transmit is called for each departing packet.
type Sender struct {
	cfg  SenderConfig
	sim  *sim.Simulator
	ctrl cc.Controller
	enc  *Encoder
	pkt  rtp.Packetizer

	queue cc.SendQueue
	pacer cc.Pacer

	// Transmit hands a departing packet to the uplink, and with it the
	// packet's reference: the callee owns it and releases it when done (see
	// rtp's pool.go). A callee that never releases is correct too; the
	// packet is then garbage-collected instead of recycled. Must be set
	// before Start.
	Transmit func(p *rtp.Packet, size int)

	// sent records in-flight packets for feedback translation, keyed by
	// RTP sequence number (see sentTable). The packetizer advances the RTP
	// and transport sequence numbers together, so tseqDelta (TransportSeq −
	// Seq, noted at each send) is a constant and a transport sequence
	// number finds its record in the slot of tseq − tseqDelta; the lookup
	// still checks the stored TransportSeq, so a delta that changed could
	// only miss, never answer wrongly.
	sent      sentTable
	tseqDelta uint16

	draining bool
	drainFn  func() // preallocated s.drain closure for pacer wakeups
	task     *sim.Task

	// frames carries encoder-side per-frame data (rate, complexity) to the
	// receiver-side SSIM computation. In the physical pipeline this is
	// implicit in the encoded bitstream; the simulator transfers it out of
	// band.
	frames frameRegistry

	// Counters for experiments.
	FramesEncoded int
	PacketsSent   int
	BytesSent     int
}

// NewSender wires an encoder and packetizer under the given controller.
func NewSender(s *sim.Simulator, cfg SenderConfig, ctrl cc.Controller, rng *rand.Rand) *Sender {
	snd := new(Sender)
	snd.Reset(s, cfg, ctrl, rng)
	return snd
}

// Reset makes s the sender NewSender returns, on the packet slots, send
// queue, sent table and frame registry it grew, emptied. Its packets must
// all be dead: the packetizer reclaims every slot (rtp.Packetizer.Reset). A
// sent table kept at its grown size answers every lookup as a fresh one
// does: any size from sentMinSlots up keeps exactly the records the full
// window keeps.
func (s *Sender) Reset(clock *sim.Simulator, cfg SenderConfig, ctrl cc.Controller, rng *rand.Rand) {
	if cfg.MTU == 0 {
		cfg.MTU = 1200
	}
	*s = Sender{cfg: cfg, sim: clock, ctrl: ctrl, pkt: s.pkt, queue: s.queue, sent: s.sent,
		frames: frameRegistry{slots: s.frames.slots}, drainFn: s.drainFn}
	s.enc = NewEncoder(cfg.Encoder, ctrl.TargetBitrate(0), rng)
	s.pkt.Reset(cfg.SSRC, cfg.PayloadType, cfg.MTU)
	s.queue.Reset()
	s.sent.reset()
	if s.frames.slots != nil {
		clear(s.frames.slots[:])
	}
	if s.drainFn == nil {
		// A method value bound to s, which never moves: it serves every
		// later Reset as it is.
		s.drainFn = s.drain
	}
	// Packetize's reference is the queue's until drain hands it to
	// Transmit; a queue discard ends it.
	s.queue.Discard = func(it cc.Item) { it.Data.(*rtp.Packet).Release() }
}

// sentTable is a direct-mapped window over the last sentWindow sequence
// numbers: slot Seq&(len−1) holds the record whose Seq matches, a newer
// number overwrites the slot of the one sentWindow before it, and lookups
// validate the stored key. A zero Size marks an empty slot: every sent
// packet has Size > 0.
//
// The slots grow with the traffic instead of starting at sentWindow: from
// sentMinSlots, 4× at a time, and only on a live collision — a store into
// an occupied slot whose record a sentWindow-slot table would keep (its Seq
// differs from the new one modulo sentWindow). So a record is overwritten
// exactly when the full window would overwrite it, and every lookup
// answers as that table does.
type sentTable struct {
	recs []SentRecord
}

// sentWindow bounds how far back feedback can reference a sent packet —
// two full windows of the old map implementation's prune threshold.
const (
	sentWindow   = 1 << 14
	sentMask     = sentWindow - 1
	sentMinSlots = 1 << 8
)

// noSent is the table of a sender that has sent nothing yet: one empty
// slot, so a lookup misses without a length check. store replaces it before
// writing, so it is only ever read.
var noSent = make([]SentRecord, 1)

// reset empties the table on the slots it grew to.
func (t *sentTable) reset() {
	if len(t.recs) < sentMinSlots {
		t.recs = noSent
		return
	}
	clear(t.recs)
}

func (t *sentTable) slot(seq uint16) *SentRecord {
	return &t.recs[int(seq)&(len(t.recs)-1)]
}

func (t *sentTable) store(rec SentRecord) {
	if len(t.recs) < sentMinSlots {
		t.grow(sentMinSlots)
	}
	r := t.slot(rec.Seq)
	for r.Size != 0 && (r.Seq^rec.Seq)&sentMask != 0 {
		// At sentWindow slots a shared slot means an equal Seq modulo
		// sentWindow, so growth stops there. Re-placing cannot collide:
		// distinct slots keep distinct low bits.
		t.grow(4 * len(t.recs))
		r = t.slot(rec.Seq)
	}
	*r = rec
}

// grow re-places every record in a table of n slots.
func (t *sentTable) grow(n int) {
	recs := make([]SentRecord, n)
	for _, old := range t.recs {
		if old.Size != 0 {
			recs[int(old.Seq)&(n-1)] = old
		}
	}
	t.recs = recs
}

// PacketPool reports the packetizer's recycled packet slots.
func (s *Sender) PacketPool() rtp.PoolStats { return s.pkt.PoolStats() }

// WrapRTX builds the RFC 4588 retransmission of one of the sender's packets
// in a slot of its packetizer's pool, with one reference, the caller's (see
// rtp.Packetizer.WrapRTX).
func (s *Sender) WrapRTX(orig *rtp.Packet, ssrc uint32, payloadType uint8, seq uint16) *rtp.Packet {
	return s.pkt.WrapRTX(orig, ssrc, payloadType, seq)
}

// ForceKeyframe asks the encoder to restart the GOP with an I-frame on the
// next tick — the sender's handling of a receiver keyframe request.
func (s *Sender) ForceKeyframe() { s.enc.ForceKeyframe() }

// Queue returns the RTP send queue between the encoder and the pacer, for a
// controller that steers on it (SCReAM's SetQueue).
func (s *Sender) Queue() *cc.SendQueue { return &s.queue }

// Start begins the frame clock. The sender runs until Stop.
func (s *Sender) Start() {
	interval := time.Second / time.Duration(s.cfg.Encoder.FPS)
	s.task = s.sim.Every(0, interval, s.tick)
}

// Stop halts the frame clock.
func (s *Sender) Stop() {
	if s.task != nil {
		s.task.Stop()
	}
}

// tick encodes one frame and enqueues its packets.
func (s *Sender) tick() {
	now := s.sim.Now()
	s.enc.SetTarget(s.ctrl.TargetBitrate(now))
	f := s.enc.NextFrame(now)
	s.FramesEncoded++
	pkts := s.pkt.Packetize(rtp.FrameInfo{
		Num:        f.Num,
		EncodeTime: f.EncodeTime,
		Keyframe:   f.Keyframe,
		Size:       f.Size,
		RTPTime:    uint32(uint64(f.Num) * rtp.VideoClockRate / uint64(s.cfg.Encoder.FPS)),
	})
	s.registerFrame(f)
	for _, p := range pkts {
		s.queue.Push(cc.Item{
			Data:     p,
			Size:     p.MarshalSize(),
			Enqueued: now,
		})
	}
	s.Kick()
}

// frameRegistry remembers the encoder-side data of the last frameWindow
// frames in a ring indexed by frame number: registering is one store, and a
// lookup validates the stored number, so there is nothing to scan or delete.
// A slot is overwritten frameSlots frames later; because frameSlots exceeds
// frameWindow, a frame inside the window is never overwritten, and one
// outside it is refused by the window check whether or not its slot has
// been reused yet.
type frameRegistry struct {
	slots  *[frameSlots]frameSlot // allocated with the first frame
	latest uint32                 // the most recently registered frame number
}

type frameSlot struct {
	num              uint32
	set              bool
	rate, complexity float64
}

const (
	// frameWindow is how far behind the newest frame FrameEncoding still
	// answers: ~40 s of video, far beyond any playout delay.
	frameWindow = 1200
	frameSlots  = 1 << 11
)

func (s *Sender) registerFrame(f Frame) {
	if s.frames.slots == nil {
		s.frames.slots = new([frameSlots]frameSlot)
	}
	s.frames.latest = f.Num
	s.frames.slots[f.Num%frameSlots] = frameSlot{num: f.Num, set: true, rate: f.Rate, complexity: f.Complexity}
}

// FrameEncoding returns the encoder rate and complexity of a frame, with
// ok=false when it is no longer tracked.
func (s *Sender) FrameEncoding(num uint32) (rate, complexity float64, ok bool) {
	if s.frames.slots == nil {
		return 0, 0, false
	}
	fs := &s.frames.slots[num%frameSlots]
	if !fs.set || fs.num != num || s.frames.latest-num > frameWindow {
		return 0, 0, false
	}
	return fs.rate, fs.complexity, true
}

// Kick restarts the drain loop; the session calls it when feedback arrives
// (a window-limited controller may have room again).
func (s *Sender) Kick() {
	if s.draining {
		return
	}
	s.draining = true
	s.drain()
}

// drain sends queued packets as the pacer and controller allow.
func (s *Sender) drain() {
	now := s.sim.Now()
	for {
		it, ok := s.queue.Peek()
		if !ok {
			s.draining = false
			return
		}
		if !s.ctrl.CanSend(now, it.Size) {
			// Self-clocked controller out of window: feedback will kick us.
			s.draining = false
			return
		}
		if !s.pacer.Idle(now) {
			s.sim.At(s.pacer.FreeAt(), s.drainFn)
			return
		}
		s.queue.Pop()
		s.pacer.Next(now, it.Size, s.ctrl.PacingRate(now))
		p := it.Data.(*rtp.Packet)
		tseq, _ := p.Header.TransportSeq()
		rec := SentRecord{
			Seq:          p.Header.SequenceNumber,
			TransportSeq: tseq,
			Size:         it.Size,
			SendTime:     now,
		}
		s.remember(rec)
		s.ctrl.OnPacketSent(cc.SentPacket{Seq: rec.Seq, Size: it.Size, SendTime: now})
		s.PacketsSent++
		s.BytesSent += it.Size
		s.Transmit(p, it.Size)
	}
}

// remember stores the record of a packet being sent.
func (s *Sender) remember(rec SentRecord) {
	s.tseqDelta = rec.TransportSeq - rec.Seq
	s.sent.store(rec)
}

// LookupTransport translates a transport sequence number into its sent
// record.
func (s *Sender) LookupTransport(tseq uint16) (SentRecord, bool) {
	rec := *s.sent.slot(tseq - s.tseqDelta)
	if rec.Size == 0 || rec.TransportSeq != tseq {
		return SentRecord{}, false
	}
	return rec, true
}

// LookupSeq translates an RTP sequence number into its sent record.
func (s *Sender) LookupSeq(seq uint16) (SentRecord, bool) {
	rec := *s.sent.slot(seq)
	if rec.Size == 0 || rec.Seq != seq {
		return SentRecord{}, false
	}
	return rec, true
}

// Acked reports whether an earlier report acknowledged seq since seq was
// last sent: whether AckSeq has marked its record, which a send stores
// anew, unmarked.
func (s *Sender) Acked(seq uint16) bool {
	r := s.sent.slot(seq)
	return r.acked && r.Seq == seq // only a stored record is ever marked
}

// AckSeq is LookupSeq for a packet a receiver reports as received: it also
// marks the record acknowledged (see Acked).
func (s *Sender) AckSeq(seq uint16) (rec SentRecord, ok bool) {
	r := s.sent.slot(seq)
	if r.Size == 0 || r.Seq != seq {
		return SentRecord{}, false
	}
	// Copied before the mark is written: reading the record back right
	// after a one-byte store into it would stall on store forwarding.
	rec = *r
	r.acked = true
	return rec, true
}
