package bond

import (
	"sort"
	"time"
)

// pending is one buffered packet awaiting release.
type pending struct {
	ext  int64 // extended (unwrapped 64-bit) media sequence number
	at   time.Duration
	meta interface{}
}

// Reorder is the receiver-side bounded reorder buffer: packets striped
// across paths of different latency arrive interleaved, and the buffer
// re-serializes them in extended-sequence order for the player. It is
// bounded two ways — a deadline (no packet waits longer than Deadline for
// a gap to fill; real-time video would rather skip than stall) and a
// capacity cap (overflow force-releases the oldest run). Packets arriving
// after their slot was released are dropped as late.
type Reorder struct {
	// Deadline bounds how long the head-of-line packet waits for a gap.
	Deadline time.Duration
	// Cap bounds the buffer in packets.
	Cap int
	// Emit releases one packet to the player, in strictly increasing
	// extended-sequence order.
	Emit func(meta interface{}, now time.Duration)
	// OnLate observes each late drop (for tracing).
	OnLate func(ext int64, now time.Duration)

	next    int64
	started bool
	buf     []pending // sorted by ext, unique, all ≥ next

	// Late counts packets dropped because their slot had already been
	// released.
	Late int64
	// DeadlineReleases and CapReleases count forced advances past a gap.
	DeadlineReleases, CapReleases int64
}

// NewReorder builds a buffer; deadline and cap fall back to the package
// defaults when zero.
func NewReorder(deadline time.Duration, capacity int, emit func(meta interface{}, now time.Duration)) *Reorder {
	d := Config{ReorderDeadline: deadline, ReorderCap: capacity}.WithDefaults()
	return &Reorder{Deadline: d.ReorderDeadline, Cap: d.ReorderCap, Emit: emit}
}

// Insert offers one arrived packet. In-order packets (and any run they
// complete) release immediately; out-of-order packets buffer until the gap
// fills, the deadline passes or the cap forces them out. Insert reports
// whether it took the packet: false for a late packet or a copy of a
// buffered one, which Emit will never see.
func (r *Reorder) Insert(ext int64, meta interface{}, now time.Duration) bool {
	if !r.started {
		r.started, r.next = true, ext
	}
	if ext < r.next {
		r.Late++
		if r.OnLate != nil {
			r.OnLate(ext, now)
		}
		return false
	}
	i := sort.Search(len(r.buf), func(i int) bool { return r.buf[i].ext >= ext })
	if i < len(r.buf) && r.buf[i].ext == ext {
		return false
	}
	r.buf = append(r.buf, pending{})
	copy(r.buf[i+1:], r.buf[i:])
	r.buf[i] = pending{ext: ext, at: now, meta: meta}
	r.release(now)
	for len(r.buf) > r.Cap {
		r.CapReleases++
		r.advance(now)
	}
	return true
}

// Tick releases every buffered run whose head has waited past the
// deadline. The harness calls it on the monitor cadence.
func (r *Reorder) Tick(now time.Duration) {
	for len(r.buf) > 0 && now-r.buf[0].at >= r.Deadline {
		r.DeadlineReleases++
		r.advance(now)
	}
}

// Flush releases everything still buffered (end of run).
func (r *Reorder) Flush(now time.Duration) {
	for len(r.buf) > 0 {
		r.advance(now)
	}
}

// release emits the in-order run at the head of the buffer.
func (r *Reorder) release(now time.Duration) {
	n := 0
	for n < len(r.buf) && r.buf[n].ext == r.next {
		r.Emit(r.buf[n].meta, now)
		r.next++
		n++
	}
	if n > 0 {
		r.buf = r.buf[:copy(r.buf, r.buf[n:])]
	}
}

// advance abandons the gap before the oldest buffered packet and releases
// the run it heads. The skipped slots are packets that never arrived
// (already accounted as link losses) or will now count as late.
func (r *Reorder) advance(now time.Duration) {
	r.next = r.buf[0].ext
	r.release(now)
}
