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

	// bytes is the unused rest of the current block of payload bytes: each
	// packet's frame meta and transport-seq payload are carved off it, and
	// a new block replaces it when a frame does not fit. The blocks hold no
	// pointers, so the collector never scans them.
	bytes []byte
}

// packetSlot is one packet of a frame's arena: the packet and the one
// extension descriptor its header points at.
type packetSlot struct {
	pkt Packet
	ext [1]Extension
}

// payloadBlock is the size of a block of payload bytes: about 17 frames'
// worth at 25 Mbps.
const payloadBlock = 32 << 10

// NewPacketizer returns a packetizer. The initial sequence numbers start at
// zero for reproducibility.
func NewPacketizer(ssrc uint32, payloadType uint8, mtu int) *Packetizer {
	if mtu < HeaderSize+16+payloadMetaSize {
		panic("rtp: MTU too small for packetization")
	}
	return &Packetizer{SSRC: ssrc, PayloadType: payloadType, MTU: mtu}
}

// NextTransportSeq returns the transport-wide sequence number the next
// produced packet will carry.
func (p *Packetizer) NextTransportSeq() uint16 { return p.tseq }

// Packetize converts one encoded frame into RTP packets. The marker bit is
// set on the final packet of the frame.
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
	// Arena allocation: one array of packet slots and the pointer slice per
	// frame, the payload bytes carved from a block shared across frames,
	// instead of ~5 small allocations per packet. The packets stay
	// independently usable — slices only share backing storage, and the
	// per-packet Extensions slice is capacity-clamped so appending an
	// extension later copies out instead of clobbering a neighbor.
	pkts := make([]*Packet, total)
	slots := make([]packetSlot, total)
	const perPkt = payloadMetaSize + 2 // frame meta + transport-seq payload
	if len(p.bytes) < total*perPkt {
		p.bytes = make([]byte, max(payloadBlock, total*perPkt))
	}
	buf := p.bytes[:total*perPkt]
	p.bytes = p.bytes[total*perPkt:]
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
		meta := buf[i*perPkt : i*perPkt+payloadMetaSize : i*perPkt+payloadMetaSize]
		binary.BigEndian.PutUint32(meta[0:], f.Num)
		binary.BigEndian.PutUint16(meta[4:], uint16(i))
		binary.BigEndian.PutUint16(meta[6:], uint16(total))
		if f.Keyframe {
			meta[8] = flagKeyframe
		}
		binary.BigEndian.PutUint64(meta[12:], uint64(f.EncodeTime))
		tseqPayload := buf[i*perPkt+payloadMetaSize : (i+1)*perPkt : (i+1)*perPkt]
		binary.BigEndian.PutUint16(tseqPayload, p.tseq)
		slot := &slots[i]
		slot.ext[0] = Extension{ID: ExtensionIDTransportSeq, Payload: tseqPayload}
		pkt := &slot.pkt
		*pkt = Packet{
			Header: Header{
				Marker:         i == total-1,
				PayloadType:    p.PayloadType,
				SequenceNumber: p.seq,
				Timestamp:      f.RTPTime,
				SSRC:           p.SSRC,
				Extensions:     slot.ext[:],
			},
			Payload:           meta,
			VirtualPayloadLen: chunk - payloadMetaSize,
		}
		p.seq++
		p.tseq++
		pkts[i] = pkt
	}
	return pkts
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
	Bytes      int // wire bytes received so far
	// FirstArrival and LastArrival bracket the packet arrivals seen so far.
	FirstArrival time.Duration
	LastArrival  time.Duration
	// Repaired marks a frame at least one of whose packets arrived via
	// retransmission (set by the player when it ingests an RTX repair).
	Repaired bool

	// got tracks which packet indices have arrived (a bitset sized from
	// Total, grown only for malformed indices), so retransmissions
	// answering a spurious NACK cannot double-count toward Complete.
	got []uint64
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
type Depacketizer struct {
	frames map[uint32]*FrameState
}

// NewDepacketizer returns an empty reassembler.
func NewDepacketizer() *Depacketizer {
	return &Depacketizer{frames: make(map[uint32]*FrameState)}
}

// ErrDuplicate reports a packet whose (frame, index) slot has already been
// filled — a retransmission answering a spurious NACK, or a repair racing
// the late original. Duplicates are counted nowhere.
var ErrDuplicate = errors.New("rtp: duplicate packet within frame")

// Push records an arrived media packet and returns the (possibly updated)
// state of its frame. A packet whose (frame, index) slot is already filled
// returns ErrDuplicate and changes nothing.
func (d *Depacketizer) Push(pkt *Packet, at time.Duration) (*FrameState, error) {
	meta, err := ParsePacketMeta(pkt.Payload)
	if err != nil {
		return nil, err
	}
	fs, ok := d.frames[meta.FrameNum]
	if !ok {
		fs = &FrameState{
			Num:          meta.FrameNum,
			EncodeTime:   meta.EncodeTime,
			Keyframe:     meta.Keyframe,
			Total:        int(meta.Total),
			FirstArrival: at,
			got:          make([]uint64, (int(meta.Total)+63)/64),
		}
		d.frames[meta.FrameNum] = fs
	}
	if fs.seen(meta.Index) {
		return fs, ErrDuplicate
	}
	fs.mark(meta.Index)
	fs.Received++
	fs.Bytes += pkt.MarshalSize()
	if at > fs.LastArrival {
		fs.LastArrival = at
	}
	return fs, nil
}

// Frame returns the reassembly state for a frame number, or nil.
func (d *Depacketizer) Frame(num uint32) *FrameState { return d.frames[num] }

// Delete discards the reassembly state of a frame (played or abandoned).
func (d *Depacketizer) Delete(num uint32) { delete(d.frames, num) }

// Pending returns the number of frames with reassembly state.
func (d *Depacketizer) Pending() int { return len(d.frames) }
