package rtp

import (
	"encoding/binary"
	"errors"
	"time"
)

// VideoClockRate is the RTP clock rate for video (RFC 3551).
const VideoClockRate = 90000

// payloadMetaSize is the size of the per-packet payload header that carries
// the frame identification the paper embeds visually in each frame (the QR
// frame number and the barcode encode timestamp).
const payloadMetaSize = 20

// frame payload header flags.
const flagKeyframe = 1 << 0

// FrameInfo describes one encoded video frame handed to the packetizer.
type FrameInfo struct {
	// Num is the monotonically increasing frame number (the paper's QR
	// code).
	Num uint32
	// EncodeTime is when encoding of the frame started (the paper's
	// barcode), relative to the sender's epoch.
	EncodeTime time.Duration
	// Keyframe marks an intra-coded (I) frame.
	Keyframe bool
	// Size is the encoded frame size in bytes.
	Size int
	// RTPTime is the frame's RTP media timestamp (90 kHz).
	RTPTime uint32
}

// Packetizer splits encoded frames into RTP packets no larger than MTU,
// attaching the transport-wide sequence number extension to each.
type Packetizer struct {
	SSRC        uint32
	PayloadType uint8
	MTU         int

	seq  uint16
	tseq uint16

	// out is the slice Packetize returns, reused by the next call.
	out  []*Packet
	pool packetPool
}

// NewPacketizer returns a packetizer. The initial sequence numbers start at
// zero for reproducibility.
func NewPacketizer(ssrc uint32, payloadType uint8, mtu int) *Packetizer {
	p := new(Packetizer)
	p.Reset(ssrc, payloadType, mtu)
	return p
}

// Reset makes p the packetizer NewPacketizer returns, on the slots and the
// frame list it grew. It reclaims every slot, so the packets p made must
// all be dead (see pool.go).
func (p *Packetizer) Reset(ssrc uint32, payloadType uint8, mtu int) {
	if mtu < HeaderSize+16+payloadMetaSize {
		panic("rtp: MTU too small for packetization")
	}
	*p = Packetizer{SSRC: ssrc, PayloadType: payloadType, MTU: mtu, out: p.out[:0], pool: p.pool}
	p.pool.reset()
}

// PoolStats reports the packetizer's recycled slots (see pool.go).
func (p *Packetizer) PoolStats() PoolStats { return p.pool.stats }

// Packetize converts one encoded frame into RTP packets. The marker bit is
// set on the final packet of the frame. Each packet carries one reference,
// its caller's (see pool.go). The returned slice is the packetizer's own and
// valid until the next Packetize; the packets outlive it.
func (p *Packetizer) Packetize(f FrameInfo) []*Packet {
	// Account for the worst-case header: fixed header plus the one-byte
	// extension block carrying the 2-byte transport sequence (4 header + 3
	// element + 1 pad = 8).
	maxPayload := p.MTU - (HeaderSize + 8)
	size := f.Size
	if size < payloadMetaSize {
		size = payloadMetaSize
	}
	total := (size + maxPayload - 1) / maxPayload
	if total > 0xFFFF {
		total = 0xFFFF
	}
	// Every slice of a packet points into its own slot and is
	// capacity-clamped, so appending an extension later copies out instead
	// of writing into the slot.
	p.out = p.out[:0]
	remaining := size
	for i := 0; i < total; i++ {
		chunk := remaining / (total - i) // even split, deterministic
		if i == total-1 {
			chunk = remaining
		}
		remaining -= chunk
		if chunk < payloadMetaSize {
			chunk = payloadMetaSize
		}
		// The packet is built in its slot field by field, every field and
		// byte written: the slot held another packet before. A field added
		// to Packet or Header must be written here too
		// (TestPacketizeOverwritesEveryField).
		s := p.pool.get()
		meta := s.bytes[:payloadMetaSize:payloadMetaSize]
		binary.BigEndian.PutUint32(meta[0:], f.Num)
		binary.BigEndian.PutUint16(meta[4:], uint16(i))
		binary.BigEndian.PutUint16(meta[6:], uint16(total))
		flags := uint32(0)
		if f.Keyframe {
			flags = flagKeyframe << 24
		}
		binary.BigEndian.PutUint32(meta[8:], flags) // meta[8], then three reserved bytes
		binary.BigEndian.PutUint64(meta[12:], uint64(f.EncodeTime))
		tseqPayload := s.bytes[payloadMetaSize:]
		binary.BigEndian.PutUint16(tseqPayload, p.tseq)
		s.ext[0] = Extension{ID: ExtensionIDTransportSeq, Payload: tseqPayload}
		pkt, h := &s.pkt, &s.pkt.Header
		h.Padding = false
		h.Marker = i == total-1
		h.PayloadType = p.PayloadType
		h.SequenceNumber = p.seq
		h.Timestamp = f.RTPTime
		h.SSRC = p.SSRC
		h.CSRC = nil
		h.Extensions = s.ext[:]
		pkt.Payload = meta
		pkt.VirtualPayloadLen = chunk - payloadMetaSize
		pkt.PadLen = 0
		pkt.slot = s
		p.seq++
		p.tseq++
		p.out = append(p.out, pkt)
	}
	return p.out
}

// PacketMeta is the decoded payload header of a media packet.
type PacketMeta struct {
	FrameNum   uint32
	Index      uint16
	Total      uint16
	Keyframe   bool
	EncodeTime time.Duration
}

// ErrNotMedia reports a payload too short to carry the frame meta header.
var ErrNotMedia = errors.New("rtp: payload too short for frame meta header")

// ParsePacketMeta decodes the payload header from a media packet payload.
func ParsePacketMeta(payload []byte) (PacketMeta, error) {
	if len(payload) < payloadMetaSize {
		return PacketMeta{}, ErrNotMedia
	}
	return PacketMeta{
		FrameNum:   binary.BigEndian.Uint32(payload[0:]),
		Index:      binary.BigEndian.Uint16(payload[4:]),
		Total:      binary.BigEndian.Uint16(payload[6:]),
		Keyframe:   payload[8]&flagKeyframe != 0,
		EncodeTime: time.Duration(binary.BigEndian.Uint64(payload[12:])),
	}, nil
}

// FrameState is the reassembly state of one frame at the receiver.
type FrameState struct {
	Num        uint32
	EncodeTime time.Duration
	Keyframe   bool
	Total      int // packets in the frame
	Received   int // packets received so far
	// FirstArrival and LastArrival bracket the packet arrivals seen so far.
	FirstArrival time.Duration
	LastArrival  time.Duration
	// Repaired marks a frame at least one of whose packets arrived via
	// retransmission (set by the player when it ingests an RTX repair).
	Repaired bool

	// got tracks which packet indices have arrived (a bitset sized from
	// Total, grown only for malformed indices), so retransmissions
	// answering a spurious NACK cannot double-count toward Complete. Its
	// backing array stays with the Depacketizer's slot across frames.
	got []uint64
	// used marks a Depacketizer slot holding a frame.
	used bool
}

// seen reports whether index i has arrived.
func (f *FrameState) seen(i uint16) bool {
	w := int(i) / 64
	return w < len(f.got) && f.got[w]&(1<<(uint(i)%64)) != 0
}

// mark records the arrival of index i, growing the bitset if a malformed
// packet carries an index beyond the frame's advertised Total.
func (f *FrameState) mark(i uint16) {
	w := int(i) / 64
	for w >= len(f.got) {
		f.got = append(f.got, 0)
	}
	f.got[w] |= 1 << (uint(i) % 64)
}

// Complete reports whether every packet of the frame has arrived.
func (f *FrameState) Complete() bool { return f.Total > 0 && f.Received >= f.Total }

// LossFraction returns the fraction of the frame's packets still missing.
func (f *FrameState) LossFraction() float64 {
	if f.Total == 0 {
		return 1
	}
	miss := f.Total - f.Received
	if miss < 0 {
		miss = 0
	}
	return float64(miss) / float64(f.Total)
}

// Depacketizer reassembles frames from incoming media packets. It performs
// no timing decisions; the jitter buffer above it decides when to release or
// abandon frames.
//
// Frames live in a ring indexed by frame number: slot Num&(len−1) holds the
// frame whose stored Num matches, checked on every lookup. The ring doubles
// only on a live collision — a new frame whose slot holds another frame
// still pending — so a stream playing frames in order reuses its slots, and
// their bitsets, forever. Past depMaxSlots (frame numbers far apart that
// only a forged or broken stream sends) a colliding frame waits in the
// spill map instead.
type Depacketizer struct {
	ring  []FrameState // len is a power of two
	live  int          // ring slots in use
	spill map[uint32]*FrameState
}

const (
	depMinSlots = 1 << 6 // two seconds of frames at 30 fps
	depMaxSlots = 1 << 12
)

// noFrames is the ring of a depacketizer that has held no frame yet: one
// empty slot, so a lookup finds nothing without a length check. add replaces
// it before storing anything, so it is only ever read.
var noFrames = make([]FrameState, 1)

// NewDepacketizer returns an empty reassembler. Its ring is allocated with
// the first frame.
func NewDepacketizer() *Depacketizer {
	d := new(Depacketizer)
	d.Reset()
	return d
}

// Reset makes d the depacketizer NewDepacketizer returns, on the frame ring
// it grew, emptied: each slot keeps its bitset's array.
func (d *Depacketizer) Reset() {
	ring := noFrames
	if len(d.ring) >= depMinSlots {
		ring = d.ring
		for i := range ring {
			ring[i] = FrameState{got: ring[i].got[:0]}
		}
	}
	*d = Depacketizer{ring: ring}
}

// ErrDuplicate reports a packet whose (frame, index) slot has already been
// filled — a retransmission answering a spurious NACK, or a repair racing
// the late original. Duplicates are counted nowhere.
var ErrDuplicate = errors.New("rtp: duplicate packet within frame")

// Push records an arrived media packet and returns the (possibly updated)
// state of its frame. A packet whose (frame, index) slot is already filled
// returns ErrDuplicate and changes nothing. The state is the Depacketizer's:
// valid until the next Push, or until its frame is deleted.
func (d *Depacketizer) Push(pkt *Packet, at time.Duration) (*FrameState, error) {
	meta, err := ParsePacketMeta(pkt.Payload)
	if err != nil {
		return nil, err
	}
	fs := d.Frame(meta.FrameNum)
	if fs == nil {
		fs = d.add(meta.FrameNum)
		*fs = FrameState{
			Num:          meta.FrameNum,
			EncodeTime:   meta.EncodeTime,
			Keyframe:     meta.Keyframe,
			Total:        int(meta.Total),
			FirstArrival: at,
			got:          zeroed(fs.got, (int(meta.Total)+63)/64),
			used:         true,
		}
	}
	if fs.seen(meta.Index) {
		return fs, ErrDuplicate
	}
	fs.mark(meta.Index)
	fs.Received++
	if at > fs.LastArrival {
		fs.LastArrival = at
	}
	return fs, nil
}

// zeroed returns n zero words, in got's backing array when it is large
// enough.
func zeroed(got []uint64, n int) []uint64 {
	if cap(got) < n {
		return make([]uint64, n)
	}
	got = got[:n]
	clear(got)
	return got
}

// slot returns the one ring slot frame num can occupy.
func (d *Depacketizer) slot(num uint32) *FrameState {
	return &d.ring[num&uint32(len(d.ring)-1)]
}

// add returns the place for a frame that has none: its ring slot, after
// doubling the ring while another pending frame holds it, or a spill entry.
func (d *Depacketizer) add(num uint32) *FrameState {
	if len(d.ring) < depMinSlots {
		d.ring = make([]FrameState, depMinSlots)
	}
	fs := d.slot(num)
	for fs.used && len(d.ring) < depMaxSlots {
		// Frames in distinct slots differ in their low bits, so re-placing
		// them in the doubled ring cannot collide.
		old := d.ring
		d.ring = make([]FrameState, 2*len(old))
		for i := range old {
			if old[i].used {
				*d.slot(old[i].Num) = old[i]
			}
		}
		fs = d.slot(num)
	}
	if fs.used {
		if d.spill == nil {
			d.spill = make(map[uint32]*FrameState)
		}
		fs = new(FrameState)
		d.spill[num] = fs
		return fs
	}
	d.live++
	return fs
}

// Frame returns the reassembly state for a frame number, or nil. Like
// Push's, it is valid until the next Push, or until its frame is deleted.
func (d *Depacketizer) Frame(num uint32) *FrameState {
	if fs := d.slot(num); fs.used && fs.Num == num {
		return fs
	}
	return d.spill[num]
}

// Delete discards the reassembly state of a frame (played or abandoned).
func (d *Depacketizer) Delete(num uint32) {
	if fs := d.slot(num); fs.used && fs.Num == num {
		*fs = FrameState{got: fs.got[:0]}
		d.live--
		return
	}
	delete(d.spill, num)
}
