package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rpivideo/internal/ring"
)

// fifoSource is a producer of events whose times never decrease, the shape
// of a link's arrivals. With reserved set it is the structure under test:
// it takes each event's sequence number when the event is decided and keeps
// only its oldest event in the simulator, arming the next one as that fires.
// With reserved clear it is the oracle: one plain At per event.
type fifoSource struct {
	s        *Simulator
	reserved bool
	lastAt   time.Duration
	pending  []fifoEvent // ring: n events from head
	head, n  int
	fireFn   func()
}

type fifoEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

func newFifoSource(s *Simulator, reserved bool, size int) *fifoSource {
	f := &fifoSource{s: s, reserved: reserved, pending: make([]fifoEvent, size)}
	f.fireFn = f.fire
	return f
}

func (f *fifoSource) schedule(at time.Duration, fn func()) {
	if at < f.lastAt {
		at = f.lastAt
	}
	f.lastAt = at
	if !f.reserved {
		f.s.At(at, fn)
		return
	}
	if f.n == len(f.pending) {
		panic("fifoSource: ring full")
	}
	seq := f.s.Reserve()
	f.pending[(f.head+f.n)%len(f.pending)] = fifoEvent{at, seq, fn}
	f.n++
	if f.n == 1 {
		f.s.AtReserved(at, seq, f.fireFn)
	}
}

func (f *fifoSource) fire() {
	head := f.pending[f.head]
	f.head = (f.head + 1) % len(f.pending)
	f.n--
	if f.n > 0 {
		next := f.pending[f.head]
		f.s.AtReserved(next.at, next.seq, f.fireFn)
	}
	head.fn()
}

type firing struct {
	id int
	at time.Duration
}

// randomProgram runs one random event program and returns what fired, in
// order. Every decision is drawn from rngs seeded by seed alone and is made
// inside an event, so two runs make the same decisions for as long as their
// events fire in the same order — and record a difference as soon as they
// do not. Events spawn plain timers (some in the past, some at the current
// instant), events on three FIFO sources and cancellations of pending
// timers; the driver alternates Run and a bounded RunUntil.
func randomProgram(t *testing.T, seed int64, reserved bool) (fired []firing, scheduled uint64, peak int) {
	t.Helper()
	s := New(seed)
	rng := rand.New(rand.NewSource(seed))
	sources := []*fifoSource{newFifoSource(s, reserved, 512), newFifoSource(s, reserved, 512), newFifoSource(s, reserved, 512)}
	live := map[int]*Timer{} // plain timers that have neither fired nor been stopped
	var order []int          // their ids, oldest first, for a seeded pick
	nextID, budget := 0, 400

	var spawn func()
	action := func(id int, plain bool) func() {
		return func() {
			if plain {
				delete(live, id)
			}
			fired = append(fired, firing{id, s.Now()})
			for n := rng.Intn(3); n > 0; n-- {
				spawn()
			}
			if rng.Intn(8) == 0 {
				for len(order) > 0 {
					id := order[0]
					order = order[1:]
					if tm, ok := live[id]; ok {
						tm.Stop()
						delete(live, id)
						break
					}
				}
			}
		}
	}
	spawn = func() {
		if budget == 0 {
			return
		}
		budget--
		id := nextID
		nextID++
		at := s.Now() + time.Duration(rng.Intn(6)-1)*time.Millisecond // −1 ms: the clamp to now
		if k := rng.Intn(5); k < len(sources) {
			sources[k].schedule(at, action(id, false))
			return
		}
		live[id] = s.At(at, action(id, true))
		order = append(order, id)
	}
	for i := 0; i < 10; i++ {
		spawn()
	}

	drv := rand.New(rand.NewSource(seed + 1))
	for rounds := 0; len(s.events) > 0; rounds++ {
		if rounds > 10_000 {
			t.Fatalf("seed %d: program does not drain", seed)
		}
		before := s.Now()
		if drv.Intn(2) == 0 {
			s.Run()
		} else {
			s.RunUntil(s.Now() + time.Duration(drv.Intn(4))*time.Millisecond)
		}
		if s.Now() < before {
			t.Fatalf("seed %d: clock went back from %v to %v", seed, before, s.Now())
		}
	}
	for _, f := range sources {
		if f.n != 0 {
			t.Fatalf("seed %d: a source still holds %d events with nothing pending", seed, f.n)
		}
	}
	return fired, s.Scheduled(), s.TimerHighWater()
}

// TestReservedOrderMatchesAtOracle is the order claim behind the link's
// single armed arrival: scheduling late under a reserved number fires
// exactly what, when and in the order an At at the reservation point would
// have, through cancellations, resumed runs and nested scheduling — and it
// counts the same events while holding fewer timers.
func TestReservedOrderMatchesAtOracle(t *testing.T) {
	held := false
	for seed := int64(1); seed <= 200; seed++ {
		got, gotN, gotPeak := randomProgram(t, seed, true)
		want, wantN, wantPeak := randomProgram(t, seed, false)
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, oracle %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d is %+v, oracle %+v", seed, i, got[i], want[i])
			}
			if i > 0 && got[i].at < got[i-1].at {
				t.Fatalf("seed %d: firing %d at %v after %v", seed, i, got[i].at, got[i-1].at)
			}
		}
		if gotN != wantN {
			t.Errorf("seed %d: Scheduled %d, oracle %d", seed, gotN, wantN)
		}
		if gotPeak > wantPeak {
			t.Errorf("seed %d: %d timers at peak, oracle %d", seed, gotPeak, wantPeak)
		}
		held = held || gotPeak < wantPeak
	}
	if !held {
		t.Error("no program ever held a reservation back: the test exercises nothing")
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestAtReservedRejectsBadNumbers: a sequence number schedules one event,
// and only if Reserve handed it out.
func TestAtReservedRejectsBadNumbers(t *testing.T) {
	s := New(1)
	nop := func() {}
	s.At(time.Millisecond, nop)
	a, b, c := s.Reserve(), s.Reserve(), s.Reserve()
	s.At(time.Millisecond, nop)

	mustPanic(t, "the counter's next value", func() { s.AtReserved(0, s.Scheduled(), nop) })
	mustPanic(t, "a number far ahead", func() { s.AtReserved(0, 1<<40, nop) })
	mustPanic(t, "a number At used", func() { s.AtReserved(0, 0, nop) })
	mustPanic(t, "a nil callback", func() { s.AtReserved(0, a, nil) })

	s.AtReserved(time.Millisecond, b, nop) // out of order, others outstanding
	mustPanic(t, "a second use with others outstanding", func() { s.AtReserved(time.Millisecond, b, nop) })
	s.AtReserved(time.Millisecond, a, nop)
	s.AtReserved(time.Millisecond, c, nop)
	for _, seq := range []uint64{a, b, c} {
		mustPanic(t, "a second use with none outstanding", func() { s.AtReserved(time.Millisecond, seq, nop) })
	}
	if len(s.events) != 5 || s.Scheduled() != 5 {
		t.Errorf("pending %d, Scheduled %d after five good schedules, want 5 and 5", len(s.events), s.Scheduled())
	}
}

// TestSeqRingAgainstSet drives the reservation set through growth, wrap and
// removals at every position against a map.
func TestSeqRingAgainstSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var r ring.Queue[uint64]
	want := map[uint64]bool{}
	var next uint64
	for step := 0; step < 20_000; step++ {
		switch k := rng.Intn(10); {
		case k < 5:
			r.Push(next)
			want[next] = true
			next++
		case k < 7: // the newest: a holder arming its only event
			if next > 0 {
				if got := take(&r, next-1); got != want[next-1] {
					t.Fatalf("step %d: take(newest %d) = %v, want %v", step, next-1, got, want[next-1])
				}
				delete(want, next-1)
			}
		default: // any number ever pushed, or one not yet
			seq := uint64(rng.Int63n(int64(next) + 2))
			if got := take(&r, seq); got != want[seq] {
				t.Fatalf("step %d: take(%d) = %v, want %v", step, seq, got, want[seq])
			}
			delete(want, seq)
		}
		if r.Len() != len(want) {
			t.Fatalf("step %d: ring holds %d, set %d", step, r.Len(), len(want))
		}
	}
}

// arrivalLoad is the event mix of a flight: 16 periodic sources (radio step,
// frame clock, pacer, reports) and one packet stream of 2 000 pkt/s whose
// arrivals are inflight × 0.5 ms out, so inflight of them are on the way.
// reserved selects how the arrivals are held: one armed timer and a FIFO of
// reserved numbers, or one timer each.
type arrivalLoad struct {
	s        *Simulator
	arrivals *fifoSource
	arrived  int
	ticks    int
	arriveFn func()
}

func newArrivalLoad(reserved bool, inflight int) *arrivalLoad {
	l := &arrivalLoad{s: New(1)}
	l.arrivals = newFifoSource(l.s, reserved, 2*inflight)
	l.arriveFn = func() { l.arrived++ }
	for i := 0; i < 16; i++ {
		l.s.Every(0, time.Duration(i+1)*time.Millisecond, func() { l.ticks++ })
	}
	l.s.Every(0, 500*time.Microsecond, func() {
		l.arrivals.schedule(l.s.Now()+time.Duration(inflight)*500*time.Microsecond, l.arriveFn)
	})
	l.s.RunUntil(time.Second)
	return l
}

// run advances the load by n packets.
func (l *arrivalLoad) run(n int) {
	l.s.RunUntil(l.s.Now() + time.Duration(n)*500*time.Microsecond)
}

// BenchmarkEventLoop is one packet interval of a flight's event mix (one
// send tick, one arrival, about two periodic firings), with 16, 128 or
// 1 024 arrivals in flight held as reserved numbers — 18 events pending
// whatever the count — or as one timer each, which makes the pending set
// 17 + inflight and shows what an insertion's shift costs as it grows.
func BenchmarkEventLoop(b *testing.B) {
	for _, mode := range []struct {
		name     string
		reserved bool
	}{{"reserved", true}, {"timers", false}} {
		for _, inflight := range []int{16, 128, 1024} {
			b.Run(fmt.Sprintf("%s/inflight=%d", mode.name, inflight), func(b *testing.B) {
				l := newArrivalLoad(mode.reserved, inflight)
				b.ReportAllocs()
				b.ResetTimer()
				l.run(b.N)
			})
		}
	}
}

// TestArrivalLoadSteadyState pins both forms of the load at zero
// allocations per packet, and the pending set at what each form claims.
func TestArrivalLoadSteadyState(t *testing.T) {
	for _, reserved := range []bool{true, false} {
		l := newArrivalLoad(reserved, 100)
		if n := testing.AllocsPerRun(100, func() { l.run(10) }); n != 0 {
			t.Errorf("reserved=%v: %.2f allocations per ten packets, want 0", reserved, n)
		}
		want := 17 + 100 // sixteen tickers, the sender, a hundred arrivals
		if reserved {
			want = 17 + 1
		}
		if got := len(l.s.events); got != want {
			t.Errorf("reserved=%v: %d events pending, want %d", reserved, got, want)
		}
		if l.arrived == 0 || l.ticks == 0 {
			t.Errorf("reserved=%v: load did not run (%d arrivals, %d ticks)", reserved, l.arrived, l.ticks)
		}
	}
}
