package sim

import (
	"math/rand"
	"testing"
	"time"
)

// TestStoppedTimersLeaveHeap: Stop removes a pending timer from the pending
// set immediately, so cancelled events neither linger there nor distort
// Pending(). An earlier implementation only flagged the timer and left it
// pending until its firing time came around.
func TestStoppedTimersLeaveHeap(t *testing.T) {
	s := New(1)
	var timers []*Timer
	for i := 0; i < 100; i++ {
		timers = append(timers, s.At(time.Duration(i+1)*time.Millisecond, func() {}))
	}
	if len(s.events) != 100 {
		t.Fatalf("pending = %d, want 100", len(s.events))
	}
	// Stop every other timer, to hit every region of the pending set.
	stopped := 0
	for i := 0; i < len(timers); i += 2 {
		timers[i].Stop()
		stopped++
		if timers[i].state != timerFree {
			t.Fatalf("timer %d not back on the free list after Stop", i)
		}
	}
	if got := len(s.events); got != 100-stopped {
		t.Fatalf("pending = %d after stopping %d, want %d", got, stopped, 100-stopped)
	}
	s.Run()
	if len(s.events) != 0 {
		t.Fatalf("pending = %d after Run", len(s.events))
	}
}

// TestStopRandomizedAgainstOracle drives a random schedule of At/Stop
// operations and checks the fired set and order against a straightforward
// oracle: fired events must be exactly the never-stopped ones, in (at, seq)
// order. Pending sets run up to 2 000 timers, a hundred times what a run
// holds, so the insertion and removal shifts cross the whole slice.
func TestStopRandomizedAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		s := New(int64(trial))
		type ev struct {
			id      int
			at      time.Duration
			stopped bool
		}
		var evs []*ev
		var timers []*Timer
		var fired []int
		n := 1 + rng.Intn([]int{20, 200, 2000}[trial%3])
		for i := 0; i < n; i++ {
			e := &ev{id: i, at: time.Duration(rng.Intn(50)) * time.Millisecond}
			evs = append(evs, e)
			id := e.id
			timers = append(timers, s.At(e.at, func() { fired = append(fired, id) }))
		}
		for i := range timers {
			if rng.Intn(3) == 0 {
				timers[i].Stop()
				evs[i].stopped = true
			}
		}
		live := 0
		for _, e := range evs {
			if !e.stopped {
				live++
			}
		}
		if len(s.events) != live {
			t.Fatalf("trial %d: Pending = %d, want %d live", trial, len(s.events), live)
		}
		s.Run()
		// Oracle order: stable sort by at (seq order is insertion order,
		// which a stable sort preserves).
		var want []int
		for ms := time.Duration(0); ms <= 50*time.Millisecond; ms += time.Millisecond {
			for _, e := range evs {
				if !e.stopped && e.at == ms {
					want = append(want, e.id)
				}
			}
		}
		if len(fired) != len(want) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("trial %d: fired[%d] = %d, want %d", trial, i, fired[i], want[i])
			}
		}
	}
}

// TestTimerPoolReuse checks the free-list recycling contract: a fired or
// stopped timer's storage is reused by a later At, and stopping a stale
// handle does not touch the event that reuses it.
func TestTimerPoolReuse(t *testing.T) {
	s := New(1)
	t1 := s.At(time.Millisecond, func() {})
	s.Run()
	if t1.state != timerFree {
		t.Fatal("a fired timer is not back on the free list")
	}
	t1.Stop() // stale: a no-op
	t2 := s.At(2*time.Millisecond, func() {})
	if t1 != t2 {
		t.Fatalf("expected the fired timer to be recycled (pool broken)")
	}
	t2.Stop()
	t2.Stop()
	if t2.state != timerFree || len(s.events) != 0 {
		t.Fatal("Stop on a recycled timer left it pending")
	}
	fired := false
	t3 := s.At(3*time.Millisecond, func() { fired = true })
	if t3 != t2 {
		t.Fatal("expected the stopped timer to be recycled")
	}
	s.Run()
	if !fired {
		t.Fatal("the event on a recycled stopped timer did not fire")
	}
}

// TestEventLoopAllocationFree verifies that the
// steady-state event loop does not allocate: a ping-pong of self-
// rescheduling events runs with zero allocations per event once the pool
// and the pending set are warm.
func TestEventLoopAllocationFree(t *testing.T) {
	s := New(1)
	count := 0
	var fn func()
	fn = func() {
		count++
		if count < 10000 {
			s.After(time.Microsecond, fn)
		}
	}
	s.After(0, fn)
	s.RunUntil(time.Millisecond) // warm the pool
	allocs := testing.AllocsPerRun(5, func() {
		count = 0
		s.After(time.Microsecond, fn)
		s.Run()
	})
	if allocs > 1 { // one for the testing harness's own bookkeeping slack
		t.Errorf("steady-state event loop allocates %.1f objects per drain", allocs)
	}
}
