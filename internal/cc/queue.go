package cc

import (
	"slices"
	"time"
)

// Item is one packet waiting in the send queue.
type Item struct {
	// Data is the opaque packet (the sender stores *rtp.Packet here).
	Data any
	// Size is the wire size in bytes.
	Size int
	// Enqueued is when the packet entered the queue.
	Enqueued time.Duration
	// FrameNum groups packets of the same video frame so discards can drop
	// whole frames.
	FrameNum uint32
}

// SendQueue is the RTP send queue between the encoder and the pacer. SCReAM
// inspects its delay to steer the media rate and discards it when it grows
// beyond its age limit (§4.2.1); GCC and static senders drain it by pacing
// alone.
type SendQueue struct {
	// Discard, when set, takes each item Clear drops: the sender releases
	// the packet there.
	Discard func(Item)

	items []Item
	head  int
	bytes int
	// keep, when set, is the Buffers the backing array is recorded in (see
	// Reuse).
	keep *Buffers
}

// Buffers is the backing array one run's SendQueue leaves to the next run's
// on the same worker. The zero value is empty.
type Buffers struct {
	items []Item
}

// Reuse makes q queue in the array b holds, zeroed, and record there the
// array it grows to. Call it on an empty queue; the queue that used b
// before must be finished.
func (q *SendQueue) Reuse(b *Buffers) {
	clear(b.items[:cap(b.items)])
	q.items, q.keep = b.items[:0], b
}

// Push appends a packet to the tail.
func (q *SendQueue) Push(it Item) {
	if len(q.items) == cap(q.items) {
		q.items = slices.Grow(q.items, 1)
		if q.keep != nil {
			q.keep.items = q.items
		}
	}
	q.items = append(q.items, it)
	q.bytes += it.Size
}

// Len returns the number of queued packets.
func (q *SendQueue) Len() int { return len(q.items) - q.head }

// Bytes returns the queued wire bytes.
func (q *SendQueue) Bytes() int { return q.bytes }

// Peek returns the head item without removing it; ok is false when empty.
func (q *SendQueue) Peek() (Item, bool) {
	if q.head >= len(q.items) {
		return Item{}, false
	}
	return q.items[q.head], true
}

// Pop removes and returns the head item; ok is false when empty.
func (q *SendQueue) Pop() (Item, bool) {
	it, ok := q.Peek()
	if !ok {
		return Item{}, false
	}
	q.items[q.head] = Item{} // release for GC
	q.head++
	q.bytes -= it.Size
	if q.head > 256 && q.head*2 >= len(q.items) {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	return it, true
}

// Delay returns how long the head packet has been queued, or 0 when empty.
func (q *SendQueue) Delay(now time.Duration) time.Duration {
	it, ok := q.Peek()
	if !ok {
		return 0
	}
	d := now - it.Enqueued
	if d < 0 {
		return 0
	}
	return d
}

// Clear empties the queue, returning the number of packets dropped: SCReAM's
// queue reset, which the paper notes causes large jumps in the highest RTP
// sequence number seen by the feedback generator. Each dropped item goes to
// Discard, when set, and its slot is zeroed so the queue keeps nothing of it.
func (q *SendQueue) Clear() int {
	n := q.Len()
	for i := q.head; i < len(q.items); i++ {
		if q.Discard != nil {
			q.Discard(q.items[i])
		}
		q.items[i] = Item{}
	}
	q.items = q.items[:0]
	q.head = 0
	q.bytes = 0
	return n
}
