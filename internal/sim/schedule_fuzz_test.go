package sim

import (
	"math/rand"
	"testing"
	"time"
)

// oracleEvent is one decided event of the schedule oracle. armed says
// whether the simulator is meant to hold a timer for it: a FIFO holder arms
// only its head, everything else is armed when scheduled.
type oracleEvent struct {
	at    time.Duration
	seq   uint64
	id    int
	armed bool
}

// scheduleOracle is the pending set as an unordered list whose next event
// is found by a scan for the least (at, seq), with the counters the
// simulator reports kept by hand.
type scheduleOracle struct {
	now    time.Duration
	seq    uint64
	events []oracleEvent
	firing int // 1 while a callback runs: its timer is live, not pending
	peak   int
}

func (o *scheduleOracle) armed() int {
	n := 0
	for _, e := range o.events {
		if e.armed {
			n++
		}
	}
	return n
}

func (o *scheduleOracle) live() {
	o.peak = max(o.peak, o.armed()+o.firing)
}

// next returns the index of the earliest event, or -1.
func (o *scheduleOracle) next() int {
	best := -1
	for i, e := range o.events {
		if best < 0 || e.at < o.events[best].at || e.at == o.events[best].at && e.seq < o.events[best].seq {
			best = i
		}
	}
	return best
}

func (o *scheduleOracle) index(id int) int {
	for i, e := range o.events {
		if e.id == id {
			return i
		}
	}
	return -1
}

func (o *scheduleOracle) remove(id int) {
	i := o.index(id)
	o.events = append(o.events[:i], o.events[i+1:]...)
}

// holderEvent is one event a FIFO holder has decided.
type holderEvent struct {
	at  time.Duration
	seq uint64
	id  int
}

// fuzzHolder is a FIFO source the way a link holds its arrivals: one
// reserved number per event, one armed timer for the head.
type fuzzHolder struct {
	lastAt time.Duration
	queue  []holderEvent
	fireFn func()
}

type fuzzTask struct {
	task     *Task
	id       int // the id of its next firing
	interval time.Duration
	stopped  bool
}

// scheduleRun drives one Simulator through a byte-decoded program and holds
// it, after every operation and at every firing, to scheduleOracle.
type scheduleRun struct {
	t       *testing.T
	s       *Simulator
	o       scheduleOracle
	prog    []byte
	budget  int
	nextID  int
	plain   map[int]*Timer // plain timers pending, by id
	order   []int          // their ids, oldest first
	holders [3]fuzzHolder
	tasks   []*fuzzTask
	// stale is a handle the simulator has recycled and not handed out
	// again: stopping it must change nothing.
	stale *Timer
}

func (r *scheduleRun) byte() (byte, bool) {
	if len(r.prog) == 0 {
		return 0, false
	}
	b := r.prog[0]
	r.prog = r.prog[1:]
	return b, true
}

// arg is the next program byte, 0 once the program is spent.
func (r *scheduleRun) arg() int {
	b, _ := r.byte()
	return int(b)
}

func (r *scheduleRun) check(what string) {
	r.t.Helper()
	s, o := r.s, &r.o
	if s.Now() != o.now || len(s.events) != o.armed() || s.Scheduled() != o.seq || s.TimerHighWater() != o.peak {
		r.t.Fatalf("after %s: now %v, pending %d, scheduled %d, timers %d; oracle %v, %d, %d, %d",
			what, s.Now(), len(s.events), s.Scheduled(), s.TimerHighWater(), o.now, o.armed(), o.seq, o.peak)
	}
}

// decide records an event the simulator was just asked for under the next
// sequence number and returns that number.
func (r *scheduleRun) decide(at time.Duration, id int, armed bool) uint64 {
	r.stale = nil // the simulator may hand the recycled timer out again
	seq := r.o.seq
	r.o.seq++
	r.o.events = append(r.o.events, oracleEvent{at: max(at, r.o.now), seq: seq, id: id, armed: armed})
	r.o.live()
	return seq
}

// fired is the first thing every callback does: the simulator must be
// running the oracle's next event, at its time.
func (r *scheduleRun) fired(id int) {
	r.t.Helper()
	i := r.o.next()
	if i < 0 {
		r.t.Fatalf("fired event %d at %v; the oracle holds none", id, r.s.Now())
	}
	if e := r.o.events[i]; e.id != id || e.at != r.s.Now() {
		r.t.Fatalf("fired event %d at %v; the oracle's next is %+v", id, r.s.Now(), e)
	}
	r.o.now = r.o.events[i].at
	r.o.events = append(r.o.events[:i], r.o.events[i+1:]...)
	r.o.firing = 1
}

func (r *scheduleRun) id() int {
	r.nextID++
	return r.nextID
}

// offset is a scheduling offset of −1 to +6 ms: many ties, some clamps.
func (r *scheduleRun) offset() time.Duration {
	return time.Duration(r.arg()%8-1) * time.Millisecond
}

func (r *scheduleRun) spend() bool {
	if r.budget == 0 {
		return false
	}
	r.budget--
	return true
}

func (r *scheduleRun) at(d time.Duration) {
	if !r.spend() {
		return
	}
	id := r.id()
	var tm *Timer
	tm = r.s.At(r.s.Now()+d, func() {
		r.fired(id)
		delete(r.plain, id)
		r.act(tm, nil)
		r.o.firing = 0
		r.stale = tm // released as this returns
	})
	r.decide(r.o.now+d, id, true)
	r.plain[id] = tm
	r.order = append(r.order, id)
}

func (r *scheduleRun) fifo(k int, d time.Duration) {
	if !r.spend() {
		return
	}
	h := &r.holders[k]
	at := max(r.o.now+d, h.lastAt, r.o.now)
	h.lastAt = at
	id := r.id()
	seq := r.s.Reserve()
	if want := r.decide(at, id, len(h.queue) == 0); seq != want {
		r.t.Fatalf("Reserve = %d, oracle %d", seq, want)
	}
	h.queue = append(h.queue, holderEvent{at, seq, id})
	if len(h.queue) == 1 {
		r.s.AtReserved(at, seq, h.fireFn)
	}
}

func (r *scheduleRun) holderFire(h *fuzzHolder) {
	head := h.queue[0]
	h.queue = h.queue[1:]
	r.fired(head.id)
	if len(h.queue) > 0 {
		next := h.queue[0]
		r.s.AtReserved(next.at, next.seq, h.fireFn)
		r.stale = nil
		r.o.events[r.o.index(next.id)].armed = true
		r.o.live()
	}
	r.act(nil, nil)
	r.o.firing = 0
}

func (r *scheduleRun) every(start, interval time.Duration) {
	if !r.spend() {
		return
	}
	ft := &fuzzTask{id: r.id(), interval: interval}
	ft.task = r.s.Every(r.s.Now()+start, interval, func() {
		r.fired(ft.id)
		r.act(nil, ft)
		if !ft.stopped { // Task.fire re-arms as this returns
			ft.id = r.id()
			r.decide(r.o.now+ft.interval, ft.id, true)
		}
		r.o.firing = 0
	})
	r.decide(r.o.now+start, ft.id, true)
	r.tasks = append(r.tasks, ft)
}

// stopTask stops a task: pending, firing now, or stopped before.
func (r *scheduleRun) stopTask(ft *fuzzTask) {
	ft.task.Stop()
	ft.stopped = true
	if r.o.index(ft.id) >= 0 {
		r.o.remove(ft.id)
	}
}

// stopPlain stops the pending plain timer the program picks.
func (r *scheduleRun) stopPlain(pick int) {
	for len(r.order) > 0 {
		i := pick % len(r.order)
		id := r.order[i]
		r.order = append(r.order[:i], r.order[i+1:]...)
		if tm, ok := r.plain[id]; ok {
			delete(r.plain, id)
			tm.Stop()
			if tm.state != timerFree {
				r.t.Fatal("a stopped pending timer is not back on the free list")
			}
			r.o.remove(id)
			r.stale = tm
			return
		}
	}
}

func (r *scheduleRun) stopStale() {
	if r.stale == nil {
		return
	}
	r.stale.Stop()
	if r.stale.state != timerFree {
		r.t.Fatal("Stop on a recycled handle took it off the free list")
	}
}

// act is what a callback does beyond checking itself in: self is the
// firing plain timer, ft the firing task.
func (r *scheduleRun) act(self *Timer, ft *fuzzTask) {
	b, ok := r.byte()
	if !ok {
		return
	}
	switch b % 9 {
	case 0:
		r.at(r.offset())
	case 1:
		r.fifo(r.arg()%len(r.holders), r.offset())
	case 2:
		r.at(r.offset())
		r.fifo(r.arg()%len(r.holders), r.offset())
	case 3:
		r.stopPlain(r.arg())
	case 4: // stop the event running now
		if self != nil {
			self.Stop()
			if self.state != timerFiring {
				r.t.Fatal("a timer stopped from its own callback is no longer firing")
			}
		} else if ft != nil {
			r.stopTask(ft)
		}
	case 5:
		if len(r.tasks) > 0 {
			r.stopTask(r.tasks[r.arg()%len(r.tasks)])
		}
	case 6:
		r.stopStale()
	}
	r.check("a callback's action")
}

func (r *scheduleRun) activeTasks() bool {
	for _, ft := range r.tasks {
		if !ft.stopped {
			return true
		}
	}
	return false
}

func (r *scheduleRun) runUntil(limit time.Duration) {
	r.s.RunUntil(limit)
	if i := r.o.next(); i >= 0 && r.o.events[i].at <= limit {
		r.t.Fatalf("RunUntil(%v) left event %+v behind", limit, r.o.events[i])
	}
	r.o.now = max(r.o.now, limit)
	r.check("RunUntil")
}

func (r *scheduleRun) run() {
	if r.activeTasks() { // Run would not return
		r.runUntil(r.o.now + 20*time.Millisecond)
		return
	}
	r.s.Run()
	if len(r.o.events) > 0 {
		r.t.Fatalf("Run returned with the oracle holding %d events", len(r.o.events))
	}
	r.check("Run")
}

func (r *scheduleRun) reset(seed int64) {
	old := make([]*Timer, 0, len(r.plain))
	for _, tm := range r.plain {
		old = append(old, tm)
	}
	r.s.Reset(seed)
	for _, tm := range old {
		tm.Stop() // stale since Reset: changes nothing
	}
	for _, ft := range r.tasks {
		ft.task.Stop()
	}
	r.o = scheduleOracle{}
	clear(r.plain)
	r.order, r.tasks, r.stale = r.order[:0], r.tasks[:0], nil
	for i := range r.holders {
		r.holders[i].queue, r.holders[i].lastAt = nil, 0
	}
	r.check("Reset")
}

// runSchedule decodes prog into top-level operations, each followed by a
// check, then stops every task and drains what is left.
func runSchedule(t *testing.T, prog []byte) {
	r := &scheduleRun{t: t, s: New(1), prog: prog, budget: 4000, plain: map[int]*Timer{}}
	for i := range r.holders {
		h := &r.holders[i]
		h.fireFn = func() { r.holderFire(h) }
	}
	for len(r.prog) > 0 {
		b, _ := r.byte()
		switch b % 10 {
		case 0, 1:
			r.at(r.offset())
		case 2:
			r.fifo(r.arg()%len(r.holders), r.offset())
		case 3:
			r.every(r.offset(), time.Duration(1+r.arg()%8)*time.Millisecond)
		case 4:
			r.stopPlain(r.arg())
		case 5:
			if len(r.tasks) > 0 {
				r.stopTask(r.tasks[r.arg()%len(r.tasks)])
			}
		case 6:
			r.stopStale()
		case 7:
			r.runUntil(r.o.now + time.Duration(r.arg()%16)*time.Millisecond)
		case 8:
			r.run()
		case 9:
			if r.arg()%4 == 0 {
				r.reset(int64(r.arg()))
			}
		}
		r.check("a top-level operation")
	}
	for _, ft := range r.tasks {
		r.stopTask(ft)
	}
	for rounds := 0; len(r.o.events) > 0; rounds++ {
		if rounds > 1000 {
			t.Fatalf("program does not drain: %d events left", len(r.o.events))
		}
		r.run()
	}
	for i, h := range r.holders {
		if len(h.queue) > 0 {
			t.Fatalf("holder %d keeps %d events after the drain", i, len(h.queue))
		}
	}
}

// FuzzSimSchedule holds the simulator to scheduleOracle over byte-decoded
// programs of At, FIFO holders on Reserve and AtReserved, Stop on pending,
// firing and recycled timers, Every and Task.Stop, Run, RunUntil and Reset: the same firings at the same Now(), and the same Pending(),
// Scheduled() and TimerHighWater() after every operation.
func FuzzSimSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 3, 1, 3, 8})
	f.Add([]byte{3, 1, 2, 7, 15, 5, 0, 8})
	f.Add([]byte{2, 0, 5, 2, 0, 5, 2, 1, 0, 8, 1, 4, 6, 8})
	rng := rand.New(rand.NewSource(40))
	for i := 0; i < 12; i++ {
		prog := make([]byte, 64<<(i%5))
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(runSchedule)
}
