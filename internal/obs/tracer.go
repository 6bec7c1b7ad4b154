package obs

// Tracer collects the typed events of one run. A nil *Tracer is the
// disabled state: every emit site guards with a nil check (and Emit itself
// tolerates a nil receiver), so disabled tracing costs one predictable
// branch and zero allocations on the packet path.
//
// With a positive capacity the tracer is a fixed-size ring: the buffer is
// allocated once up front, Emit never allocates, and once full the oldest
// events are overwritten (Dropped counts them). With capacity ≤ 0 the
// tracer grows without bound and keeps everything — the mode trace exports
// and the golden-trace suite use — in chunks of chunkEvents: a full chunk
// is never copied, the next event opens a new one.
//
// A Tracer is owned by a single run and is not safe for concurrent use;
// campaign parallelism gives every run its own tracer.
type Tracer struct {
	buf  []Event // the ring
	ring bool
	head int // oldest event's index once the ring has wrapped
	full bool
	n    int64 // total events emitted

	// chunks holds an unbounded tracer's events; only the last one has room.
	chunks [][]Event
}

// chunkEvents is the size of an unbounded tracer's chunks (≈ 80 KB).
const chunkEvents = 2048

// New returns a tracer. capacity > 0 selects the fixed-size ring;
// capacity ≤ 0 keeps every event.
func New(capacity int) *Tracer {
	if capacity > 0 {
		return &Tracer{buf: make([]Event, 0, capacity), ring: true}
	}
	return &Tracer{}
}

// Emit records one event. It is safe to call on a nil tracer (a no-op),
// in ring mode it never allocates, and unbounded it allocates once per
// chunkEvents events.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.n++
	if !t.ring {
		last := len(t.chunks) - 1
		if last < 0 || len(t.chunks[last]) == chunkEvents {
			t.chunks = append(t.chunks, make([]Event, 0, chunkEvents))
			last++
		}
		t.chunks[last] = append(t.chunks[last], ev)
		return
	}
	if len(t.buf) == cap(t.buf) {
		t.buf[t.head] = ev
		t.head++
		if t.head == len(t.buf) {
			t.head = 0
		}
		t.full = true
		return
	}
	t.buf = append(t.buf, ev)
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	if t.ring {
		return len(t.buf)
	}
	return int(t.n)
}

// Emitted returns the total number of events emitted, including any the
// ring has overwritten.
func (t *Tracer) Emitted() int64 {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped returns how many events the ring overwrote.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.n - int64(t.Len())
}

// Chunks returns the retained events in emission order (which is
// simulation-time order) as consecutive slices of the tracer's own storage,
// copying nothing: nil when there are none, the chunks of an unbounded
// tracer, a ring's one or two segments. They stay the tracer's storage — a
// ring overwrites them as it emits on — so read them, or hand them to
// WriteJSONL or analyze.Run as they are, once the run is over.
func (t *Tracer) Chunks() [][]Event {
	switch {
	case t.Len() == 0:
		return nil
	case !t.ring:
		return t.chunks
	case t.full:
		return [][]Event{t.buf[t.head:], t.buf[:t.head]}
	}
	return [][]Event{t.buf}
}

// Events returns the retained events in emission order in one freshly
// allocated slice; the caller may keep it.
func (t *Tracer) Events() []Event {
	if t.Len() == 0 {
		return nil
	}
	out := make([]Event, 0, t.Len())
	for _, c := range t.Chunks() {
		out = append(out, c...)
	}
	return out
}
