package rtp

import "slices"

// Recycled media packets. A Packetizer makes its packets in slots it
// allocates a block at a time and takes back through Release, so a stream in
// steady state allocates no packets at all.
//
// The ownership rule: a packet leaves Packetize with one reference, its
// first holder's. A holder that hands the packet on (a hook such as a
// sender's Transmit) hands that reference over with it; a call that only
// looks at the packet for its duration (a receiver's OnMedia) lends it and
// the caller keeps the reference. A holder that keeps the packet beside
// another (a retransmission cache, a fan-out to several links, a reorder
// buffer) takes its own with Retain, and every holder ends by calling
// Release exactly once. The last Release returns the slot to its
// packetizer's free list.
//
// A holder that never releases keeps a garbage-collected packet: its slot
// is simply never reused by that packetizer. (A packetizer's Reset reclaims
// every slot at once, so by then every holder of its packets must be
// finished.) Only an early Release is a bug, and the two guards catch the
// common ones in every build: Retain on a released packet
// and a Release below zero panic. Built with the rtppoison tag, a released
// packet is overwritten with implausible values and never reused, so a
// holder that reads a packet after its last Release corrupts the run's
// output instead of silently reading the next frame's packet.
//
// A retransmission built by Packetizer.WrapRTX takes a slot from the same
// free list and follows the same rule: the sender hands its one reference
// on, and the holder that takes it releases it once.
//
// Retain and Release do nothing on packets no packetizer made: Unmarshal's
// and literals. Nor on a copy of a pooled Packet value: only the slot's own
// packet carries its count. UnwrapRTX's packet is such a value; it borrows
// its retransmission's payload, so it is read only while the
// retransmission is held.

// PoolBlock is how many packet slots a packetizer allocates at a time, when
// its free list is empty.
const PoolBlock = 64

// packetSlot is one recycled packet with everything its slices point at
// inline: the extension descriptor and the frame meta and transport-seq
// bytes.
type packetSlot struct {
	pkt   Packet
	ext   [1]Extension
	bytes [payloadMetaSize + 2]byte
	refs  int32
	pool  *packetPool
}

// packetPool is a packetizer's slot blocks, its free list and its
// occupancy.
type packetPool struct {
	blocks [][]packetSlot
	free   []*packetSlot
	stats  PoolStats
}

// PoolStats describes a packetizer's or a DatagramPool's slots: how many it
// holds, how many hold a referenced packet now, and the most that ever did
// at once, since its last Reset: Slots includes the slots the Reset
// reclaimed. For a packetizer, Refs counts the references its live packets
// carry, one per holder (a DatagramPool leaves it zero: a datagram has one
// holder, so Live says it).
type PoolStats struct {
	Slots, Live, PeakLive, Refs int
}

// reset empties the pool on the blocks it allocated: every slot is
// reclaimed with its count reset, so the packets in them must all be dead —
// whatever still holds one is finished and will neither read nor release
// it. Built with the rtppoison tag, the slots are poisoned and dropped
// instead, as Release treats a packet's last reference.
func (p *packetPool) reset() {
	if poisonReleased {
		for _, block := range p.blocks {
			for i := range block {
				block[i].refs = 0
				block[i].poison()
			}
		}
		*p = packetPool{}
		return
	}
	*p = packetPool{blocks: p.blocks, free: p.free[:0]}
	for _, block := range p.blocks {
		for i := range block {
			block[i].refs = 0
			p.free = append(p.free, &block[i])
		}
	}
	p.stats.Slots = len(p.free)
}

// get takes a slot off the free list with one reference, allocating a block
// when the list is empty.
func (p *packetPool) get() *packetSlot {
	if len(p.free) == 0 {
		block := make([]packetSlot, PoolBlock)
		p.stats.Slots += PoolBlock
		// The list can then hold every slot at once, so Release never
		// grows it: this is the one place it does.
		p.free = slices.Grow(p.free, p.stats.Slots)
		for i := range block {
			block[i].pool = p
			p.free = append(p.free, &block[i])
		}
		p.blocks = append(p.blocks, block)
	}
	s := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	s.refs = 1
	p.stats.Live++
	p.stats.Refs++
	p.stats.PeakLive = max(p.stats.PeakLive, p.stats.Live)
	return s
}

// pooled returns p's slot, or nil when no packetizer made p.
func (p *Packet) pooled() *packetSlot {
	if s := p.slot; s != nil && &s.pkt == p {
		return s
	}
	return nil
}

// Retain adds a reference to a packet from a Packetizer, for a holder that
// keeps it beside the reference it was handed or lent. It panics on a
// packet already released.
func (p *Packet) Retain() {
	s := p.pooled()
	if s == nil {
		return
	}
	if s.refs <= 0 {
		panic("rtp: Retain of a released packet")
	}
	s.refs++
	s.pool.stats.Refs++
}

// Release drops one reference to a packet from a Packetizer; the last
// returns its slot to the packetizer, after which the packet must not be
// used. It panics when no reference is left to drop.
func (p *Packet) Release() {
	s := p.pooled()
	if s == nil {
		return
	}
	if s.refs <= 0 {
		panic("rtp: Release of a packet with no references left")
	}
	s.pool.stats.Refs--
	if s.refs--; s.refs > 0 {
		return
	}
	s.pool.stats.Live--
	if poisonReleased {
		s.poison()
		return
	}
	s.pool.free = append(s.pool.free, s)
}

// poison overwrites a released packet with values no stream carries, yet
// ones every stage still handles in bounded time and memory: a reader after
// the last Release sees frame 0 (long played) with a total of zero packets
// and no payload, transport sequence 0 and an RTP sequence number half the
// space away.
func (s *packetSlot) poison() {
	s.bytes = [len(s.bytes)]byte{}
	h := &s.pkt.Header
	h.SequenceNumber += 1 << 15
	h.Timestamp = ^h.Timestamp
	h.SSRC = ^h.SSRC
	s.pkt.VirtualPayloadLen = 0
}
