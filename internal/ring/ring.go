// Package ring holds the two containers the packet path keeps its
// per-packet state in: Queue, a FIFO ring, and SeqTable, a set of records
// keyed by a 16-bit sequence number. Both allocate only when they grow, so a
// warm run adds and removes packets without touching the heap.
package ring

// Queue is a FIFO ring buffer with power-of-two capacity. The zero value is
// an empty queue. Push and Pop are O(1) without reslicing, so a queue never
// sheds its backing array one element at a time; At and Truncate let a
// holder read, compact or shorten it in place, from either end.
type Queue[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Cap returns the number of slots: the elements q holds before it grows.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// At returns the i-th element from the head (0 = head, Len()-1 = tail) for
// in-place reading and writing.
func (q *Queue[T]) At(i int) *T { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// Push appends v at the tail, doubling a full queue first. The doubling is
// written out here, not called: a call would cost Push the inlining budget
// of the holders that wrap it (cc.SendQueue.Push, GCC's recvWindow.add).
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(16, 2*q.n))
		copy(buf[copy(buf, q.buf[q.head:]):], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the head element, zeroing its slot so the queue
// keeps no reference to it. A queue that empties starts again at its first
// slot: one that drains often then keeps to the front of its buffer, slots
// still in cache, instead of walking all of a buffer grown at a past peak.
func (q *Queue[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	if q.n--; q.n == 0 {
		q.head = 0
	}
	return v
}

// Truncate keeps the first n elements and zeroes the rest: the tail end of
// an in-place compaction, or a pop from the tail. Pop and Truncate leave
// every slot past the live ones zeroed, so Truncate(0) is a holder's reset:
// an empty queue on the buffer it grew, holding nothing of what it held.
func (q *Queue[T]) Truncate(n int) {
	var zero T
	for i := n; i < q.n; i++ {
		*q.At(i) = zero
	}
	if q.n = n; n == 0 {
		q.head = 0
	}
}

// SeqTable is a set of records keyed by a 16-bit sequence number that
// answers exactly as a map[uint16]V would, without hashing and without a
// heap object per record. It is direct-mapped and key-validated: slot
// k&mask holds the live record whose key is k. When two live keys would
// share a slot the table doubles; at 1<<16 slots none can, so the table
// stops there at the latest, however the keys wrap. The zero value is an
// empty table.
type SeqTable[V any] struct {
	slots []seqSlot[V] // len is a power of two, or zero
	n     int
	// first is how many slots the table takes when it has none: 16, or
	// MakeSeqTable's size.
	first int
}

type seqSlot[V any] struct {
	key  uint16
	live bool
	val  V
}

// MakeSeqTable returns an empty table that takes the given number of
// slots, a power of two, at its first Put: the size the holder expects its
// live window to fit in.
func MakeSeqTable[V any](slots int) SeqTable[V] {
	if slots <= 0 || slots&(slots-1) != 0 {
		panic("ring: SeqTable size is not a power of two")
	}
	return SeqTable[V]{first: slots}
}

// Len returns the number of records.
func (t *SeqTable[V]) Len() int { return t.n }

// Cap returns the number of slots the table has grown to.
func (t *SeqTable[V]) Cap() int { return len(t.slots) }

// Get returns the record of k, or nil, for reading and updating in place.
// The pointer stays valid until the next Put; Delete zeroes what it points
// to.
func (t *SeqTable[V]) Get(k uint16) *V {
	if s := t.slot(k); s != nil && s.live && s.key == k {
		return &s.val
	}
	return nil
}

// Put stores v as the record of k and returns the record it replaced; ok
// is false when k had none.
func (t *SeqTable[V]) Put(k uint16, v V) (old V, ok bool) {
	s := t.slot(k)
	for s == nil || (s.live && s.key != k) {
		t.grow()
		s = t.slot(k)
	}
	if ok = s.live; ok {
		old = s.val
	} else {
		t.n++
	}
	s.key, s.live, s.val = k, true, v
	return old, ok
}

// Delete removes the record of k and returns it; ok is false when k had
// none. The slot is zeroed, so the table keeps no reference the record held.
func (t *SeqTable[V]) Delete(k uint16) (v V, ok bool) {
	s := t.slot(k)
	if s == nil || !s.live || s.key != k {
		return v, false
	}
	v = s.val
	*s = seqSlot[V]{}
	t.n--
	return v, true
}

// Clear removes every record and keeps the slots: a holder's reset, an
// empty table at the size this one grew to.
func (t *SeqTable[V]) Clear() {
	clear(t.slots)
	t.n = 0
}

// slot returns the one slot k can occupy, or nil while there are none.
func (t *SeqTable[V]) slot(k uint16) *seqSlot[V] {
	if len(t.slots) == 0 {
		return nil
	}
	return &t.slots[int(k)&(len(t.slots)-1)]
}

// grow doubles the table, or gives an empty one its first slots. Live
// records in distinct slots differ in their low bits, so re-placing them
// cannot collide.
func (t *SeqTable[V]) grow() {
	old := t.slots
	t.slots = make([]seqSlot[V], max(16, t.first, 2*len(old)))
	for i := range old {
		if old[i].live {
			*t.slot(old[i].key) = old[i]
		}
	}
}
