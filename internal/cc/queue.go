package cc

import (
	"time"

	"rpivideo/internal/ring"
)

// Item is one packet waiting in the send queue.
type Item struct {
	// Data is the opaque packet (the sender stores *rtp.Packet here).
	Data any
	// Size is the wire size in bytes.
	Size int
	// Enqueued is when the packet entered the queue.
	Enqueued time.Duration
}

// SendQueue is the RTP send queue between the encoder and the pacer. SCReAM
// inspects its delay to steer the media rate and discards it when it grows
// beyond its age limit (§4.2.1); GCC and static senders drain it by pacing
// alone.
type SendQueue struct {
	// Discard, when set, takes each item Clear drops: the sender releases
	// the packet there.
	Discard func(Item)

	items ring.Queue[Item]
}

// Reset makes q the zero queue on the array it grew to, holding none of
// its packets: they are dropped, not handed to Discard, which goes too.
func (q *SendQueue) Reset() {
	*q = SendQueue{items: q.items}
	q.items.Truncate(0)
}

// Push appends a packet to the tail.
func (q *SendQueue) Push(it Item) { q.items.Push(it) }

// Len returns the number of queued packets.
func (q *SendQueue) Len() int { return q.items.Len() }

// Peek returns the head item without removing it; ok is false when empty.
func (q *SendQueue) Peek() (Item, bool) {
	if q.items.Len() == 0 {
		return Item{}, false
	}
	return *q.items.At(0), true
}

// Pop removes and returns the head item; ok is false when empty.
func (q *SendQueue) Pop() (Item, bool) {
	if q.items.Len() == 0 {
		return Item{}, false
	}
	return q.items.Pop(), true
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
// Discard, when set, in queue order, and the queue keeps nothing of it.
func (q *SendQueue) Clear() int {
	n := q.items.Len()
	for q.items.Len() > 0 {
		if it := q.items.Pop(); q.Discard != nil {
			q.Discard(it)
		}
	}
	return n
}
