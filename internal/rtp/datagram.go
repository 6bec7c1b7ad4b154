package rtp

// Recycled feedback datagrams. An endpoint writes every RTCP packet it sends
// into a Datagram taken from its own DatagramPool (AppendTo into d.B[:0]),
// hands the slot to whatever carries it, and the slot comes back to that
// pool through Release, so a stream in steady state allocates no RTCP
// buffers.
//
// The ownership rule is simpler than a media packet's (pool.go): a datagram
// always has exactly one holder, so there is no Retain. Get makes the
// endpoint its holder; the endpoint's send hook hands the datagram over;
// and whoever ends its journey calls Release exactly once — the link exit
// that delivers it, after the peer's OnDatagram has returned (OnDatagram
// borrows the bytes for the call), the link exit that drops it, or the
// socket writer once the bytes are written. An endpoint that does not send
// a slot it took (an AppendTo failed) releases it itself.
//
// A second Release panics in every build. Built with the rtppoison tag, a
// released datagram's bytes are zeroed, which PeekRTCP and every parser
// reject, and the slot is never reused, so a holder that reads a datagram
// after handing it back sees a Rejected packet instead of the next report.

// DatagramBlock is how many datagram slots a pool allocates at a time, when
// its free list is empty.
const DatagramBlock = 8

// Datagram is one recycled RTCP datagram.
type Datagram struct {
	// B is the datagram's bytes. Its backing array belongs to the slot and
	// grows to the largest packet the slot has held.
	B    []byte
	pool *DatagramPool
	held bool
}

// DatagramPool is one endpoint's datagram slots and their free list. The
// zero value is empty and ready.
type DatagramPool struct {
	blocks [][]Datagram
	free   []*Datagram
	stats  PoolStats
}

// Reset empties p on the slots it allocated: every one is reclaimed, held
// or not, so whatever holds a datagram of p is finished and will neither
// read nor release it. Built with the rtppoison tag, the slots are zeroed
// and dropped instead, as Release treats a datagram.
func (p *DatagramPool) Reset() {
	if poisonReleased {
		for _, block := range p.blocks {
			for i := range block {
				clear(block[i].B)
				block[i].held = false
			}
		}
		*p = DatagramPool{}
		return
	}
	*p = DatagramPool{blocks: p.blocks, free: p.free[:0]}
	for _, block := range p.blocks {
		for i := range block {
			block[i].held = false
			p.free = append(p.free, &block[i])
		}
	}
	p.stats.Slots = len(p.free)
}

// Get takes a slot off the free list, empty and held, allocating a block
// of DatagramBlock slots when the list is empty.
func (p *DatagramPool) Get() *Datagram {
	if len(p.free) == 0 {
		block := make([]Datagram, DatagramBlock)
		for i := range block {
			block[i].pool = p
			p.free = append(p.free, &block[i])
		}
		p.blocks = append(p.blocks, block)
		p.stats.Slots += DatagramBlock
	}
	d := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	d.B, d.held = d.B[:0], true
	p.stats.Live++
	p.stats.PeakLive = max(p.stats.PeakLive, p.stats.Live)
	return d
}

// Stats reports the pool's slots: how many it holds, how many are held
// now, and the most that ever were at once since its last Reset.
func (p *DatagramPool) Stats() PoolStats { return p.stats }

// Release hands the datagram back to its pool, after which neither it nor
// its bytes may be used. It panics on a datagram already released.
func (d *Datagram) Release() {
	if !d.held {
		panic("rtp: Release of a released datagram")
	}
	d.held = false
	d.pool.stats.Live--
	if poisonReleased {
		clear(d.B)
		return
	}
	d.pool.free = append(d.pool.free, d)
}
