// Package sim provides a deterministic discrete-event simulator.
//
// All experiment code in this repository runs on virtual time owned by a
// Simulator: events are scheduled at absolute or relative virtual times and
// executed in order. Determinism is guaranteed by (a) a stable tie-break on
// the scheduling sequence number and (b) named random streams derived from a
// single master seed, so a run is a pure function of (Config, Seed).
//
// The event loop is the hot path of every campaign, so it avoids steady-state
// allocation: fired and stopped timers are recycled through a free list, and
// the pending set is one slice kept sorted latest first, so the next event is
// its last element. The pending set holds one entry per event source (a link
// keeps one arrival in it however many packets are in flight), a dozen or two
// entries, where an insertion's shift of the few earlier entries costs less
// than a heap's sifting. Because (at, seq) is a total order over timers, the
// firing order is the sorted order whatever structure holds it.
package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"rpivideo/internal/ring"
)

// Timer states: timerPending marks a timer in the pending set; timerFiring a
// popped timer whose callback is running; timerFree a recycled timer waiting
// on the free list.
const (
	timerPending = iota
	timerFiring
	timerFree
)

// Timer is a handle to a scheduled event. Stopping a Timer prevents its
// callback from firing if it has not fired yet.
//
// A Timer handle is owned by its creator only until the callback has run (or
// Stop is called): after that the simulator recycles the Timer for a future
// event, and a retained handle goes stale. Calling Stop on a stale handle
// that has not yet been reused is a safe no-op; retaining a handle
// indefinitely and stopping it after the simulator has reused it is a logic
// error. No code in this repository retains fired timers (sim.Task replaces
// its handle on every firing).
type Timer struct {
	fn    func()
	owner *Simulator
	state uint8 // timerPending, timerFiring or timerFree
	id    int32 // slot in the owner's timer registry, fixed for life
}

// Stop cancels the timer. It is safe to call multiple times and after the
// timer has fired (as long as the handle has not been recycled, see the type
// comment). A pending timer leaves the pending set immediately, so cancelled
// events never occupy it; stopping a timer from its own callback changes
// nothing.
func (t *Timer) Stop() {
	if t == nil || t.state != timerPending {
		return
	}
	t.owner.remove(t.id)
	t.owner.release(t)
}

// entry is one pending event. The ordering key (at, seq) is stored inline
// so comparisons touch only the contiguous pending slice — no pointer chase
// into the Timer — and the timer is referenced by its registry id rather
// than a pointer, so the slice is pointer-free: shifting moves entries
// without GC write barriers and the collector never scans the event set.
type entry struct {
	at  time.Duration
	seq uint64
	id  int32
}

// before orders events by firing time, tie-broken by scheduling sequence.
// seq is unique per event, so this is a total order, and the firing order
// is fixed whatever structure holds the pending set.
func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Simulator owns virtual time and the pending event set.
type Simulator struct {
	now    time.Duration
	events []entry  // pending set, latest first: the next event is the last
	timers []*Timer // registry: timer id → timer, grows with peak concurrency
	free   []*Timer // recycled timers
	seq    uint64
	// reserved holds the sequence numbers Reserve handed out that AtReserved
	// has not scheduled yet.
	reserved ring.Queue[uint64]
	seed     int64
	streams  map[string]*rand.Rand
	// spare holds the streams of the runs before the last Reset, re-seeded
	// by Stream for new names instead of allocating a source each.
	spare   []*rand.Rand
	running bool
}

// New returns a Simulator at virtual time zero whose random streams derive
// from seed.
func New(seed int64) *Simulator {
	return &Simulator{seed: seed, streams: make(map[string]*rand.Rand)}
}

// Reset returns s to the state New(seed) creates — virtual time zero, no
// events, no reservations, no streams — keeping its storage: the pending set,
// the timer registry's backing array and every random stream's source. A
// worker that runs one simulation after another resets one Simulator instead
// of building a new one each time. Timers and Tasks of the runs before are
// dropped, not recycled: a handle kept across Reset goes stale, and stopping
// it is a no-op. Reset panics inside Run.
func (s *Simulator) Reset(seed int64) {
	if s.running {
		panic("sim: Reset inside Run")
	}
	for _, t := range s.timers {
		t.fn, t.state = nil, timerFree
	}
	clear(s.timers)
	clear(s.free)
	s.now, s.seq, s.seed = 0, 0, seed
	s.events, s.timers, s.free = s.events[:0], s.timers[:0], s.free[:0]
	s.reserved.Truncate(0)
	for _, r := range s.streams {
		s.spare = append(s.spare, r)
	}
	clear(s.streams)
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Stream returns a deterministic random stream identified by name. The same
// (seed, name) pair always yields the same sequence, independent of the order
// in which streams are created or used relative to one another.
func (s *Simulator) Stream(name string) *rand.Rand {
	if r, ok := s.streams[name]; ok {
		return r
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", s.seed, name)
	seed := int64(h.Sum64())
	var r *rand.Rand
	if n := len(s.spare); n > 0 {
		// Seed restarts a stream exactly where rand.New(rand.NewSource(seed))
		// starts, a partial Read's leftover bytes dropped too.
		r = s.spare[n-1]
		s.spare = s.spare[:n-1]
		r.Seed(seed)
	} else {
		r = rand.New(rand.NewSource(seed))
	}
	s.streams[name] = r
	return r
}

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// (or present) runs the event at the current time, after already-pending
// events for that time.
func (s *Simulator) At(at time.Duration, fn func()) *Timer {
	s.seq++
	return s.schedule(at, s.seq-1, fn)
}

// Reserve takes the next scheduling sequence number without scheduling
// anything. An event later pushed under it with AtReserved ties with other
// events of the same virtual time exactly as if At had been called where
// Reserve was — so a source that knows its future events are FIFO (a link's
// arrivals) can decide their order now and keep only the earliest one in the
// pending set. Reserved numbers count toward Scheduled.
func (s *Simulator) Reserve() uint64 {
	seq := s.seq
	s.seq++
	s.reserved.Push(seq)
	return seq
}

// AtReserved schedules fn at virtual time at under a sequence number taken
// earlier with Reserve; the clamp to the current time is At's. Each number
// schedules one event: one that Reserve never returned, or that was already
// used, panics.
func (s *Simulator) AtReserved(at time.Duration, seq uint64, fn func()) *Timer {
	// A nil callback panics in schedule, with the reservation still open.
	if fn != nil && !take(&s.reserved, seq) {
		panic(fmt.Sprintf("sim: AtReserved with sequence number %d, which is not an unused reservation", seq))
	}
	return s.schedule(at, seq, fn)
}

// schedule puts fn in the pending set under (max(at, now), seq), in a
// recycled timer when there is one.
func (s *Simulator) schedule(at time.Duration, seq uint64, fn func()) *Timer {
	if fn == nil {
		panic("sim: event scheduled with nil callback")
	}
	if at < s.now {
		at = s.now
	}
	var t *Timer
	if n := len(s.free); n > 0 {
		t = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		t.fn, t.state = fn, timerPending
	} else {
		t = &Timer{fn: fn, owner: s, id: int32(len(s.timers))}
		s.timers = append(s.timers, t)
	}
	// Shift the entries that fire before the new one up a slot, from the
	// tail, and seat it in the hole.
	e := entry{at: at, seq: seq, id: t.id}
	ev := append(s.events, e)
	i := len(ev) - 1
	for ; i > 0 && ev[i-1].before(&e); i-- {
		ev[i] = ev[i-1]
	}
	ev[i] = e
	s.events = ev
	return t
}

// take removes seq from r, the ascending queue of sequence numbers reserved
// and not yet scheduled, and reports whether it was there. A FIFO holder
// takes its oldest number, which sits within a few slots of the head, or,
// arming its only event, the newest; take shifts only the entries older
// than the one it removes.
func take(r *ring.Queue[uint64], seq uint64) bool {
	n := r.Len()
	if n == 0 {
		return false
	}
	if *r.At(n - 1) == seq {
		r.Truncate(n - 1)
		return true
	}
	for i := 0; i < n-1; i++ {
		v := *r.At(i)
		if v > seq {
			return false
		}
		if v == seq {
			for ; i > 0; i-- {
				*r.At(i) = *r.At(i - 1)
			}
			r.Pop()
			return true
		}
	}
	return false
}

// After schedules fn to run d after the current virtual time.
func (s *Simulator) After(d time.Duration, fn func()) *Timer {
	return s.At(s.now+d, fn)
}

// release returns a timer to the free list. The caller must have detached it
// from the pending set already.
func (s *Simulator) release(t *Timer) {
	t.fn = nil
	t.state = timerFree
	s.free = append(s.free, t)
}

// remove deletes the pending entry of timer id. The pending set holds one
// entry per event source, so a scan finds it.
func (s *Simulator) remove(id int32) {
	for i := range s.events {
		if s.events[i].id == id {
			s.events = append(s.events[:i], s.events[i+1:]...)
			return
		}
	}
}

// Task is a handle to a periodic task.
type Task struct {
	sim      *Simulator
	interval time.Duration
	fn       func()
	fireFn   func() // preallocated t.fire closure, one per task
	timer    *Timer
	stopped  bool
}

// Stop cancels all future firings of the task.
func (t *Task) Stop() {
	if t == nil || t.stopped {
		return
	}
	t.stopped = true
	t.timer.Stop()
}

func (t *Task) fire() {
	if t.stopped {
		return
	}
	t.fn()
	if t.stopped { // fn may stop the task
		return
	}
	t.timer = t.sim.After(t.interval, t.fireFn)
}

// Every schedules fn to run first at start and then every interval until the
// returned Task is stopped.
func (s *Simulator) Every(start, interval time.Duration, fn func()) *Task {
	if interval <= 0 {
		panic("sim: Every requires a positive interval")
	}
	t := &Task{sim: s, interval: interval, fn: fn}
	t.fireFn = t.fire
	t.timer = s.At(start, t.fireFn)
	return t
}

// Scheduled returns how many events have been scheduled since New — fired,
// stopped, still pending, and reserved but not yet pushed alike. It is a pure
// function of (Config, Seed), which makes it the run cost a regression gate
// can pin exactly.
func (s *Simulator) Scheduled() uint64 { return s.seq }

// TimerHighWater returns the most timers that were ever live at once (pending
// or being fired): the registry only grows when the free list is empty. A
// reservation holds no timer until AtReserved pushes it.
func (s *Simulator) TimerHighWater() int { return len(s.timers) }

// step executes the next pending event; it reports false when none remain
// or, bounded, when the next one is later than limit.
func (s *Simulator) step(limit time.Duration, bounded bool) bool {
	n := len(s.events) - 1
	if n < 0 || bounded && s.events[n].at > limit {
		return false
	}
	e := s.events[n]
	s.events = s.events[:n]
	t := s.timers[e.id]
	t.state = timerFiring
	s.now = e.at
	t.fn()
	s.release(t)
	return true
}

// Run executes events until none remain.
func (s *Simulator) Run() {
	if s.running {
		panic("sim: Run re-entered")
	}
	s.running = true
	defer func() { s.running = false }()
	for s.step(0, false) {
	}
}

// RunUntil executes events with timestamps ≤ t, then advances the clock to
// t. Events scheduled after t remain pending.
func (s *Simulator) RunUntil(t time.Duration) {
	if s.running {
		panic("sim: RunUntil re-entered")
	}
	s.running = true
	defer func() { s.running = false }()
	for s.step(t, true) {
	}
	if t > s.now {
		s.now = t
	}
}
