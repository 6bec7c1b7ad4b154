package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30*time.Millisecond, func() { got = append(got, 3) })
	s.At(10*time.Millisecond, func() { got = append(got, 1) })
	s.At(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now() = %v, want 30ms", s.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	s := New(1)
	var fired time.Duration
	s.At(10*time.Millisecond, func() {
		s.After(5*time.Millisecond, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 15*time.Millisecond {
		t.Errorf("After fired at %v, want 15ms", fired)
	}
}

func TestPastEventClampsToNow(t *testing.T) {
	s := New(1)
	var fired time.Duration
	s.At(10*time.Millisecond, func() {
		s.At(2*time.Millisecond, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 10*time.Millisecond {
		t.Errorf("past event fired at %v, want clamp to 10ms", fired)
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	fired := false
	timer := s.At(time.Millisecond, func() { fired = true })
	timer.Stop()
	s.Run()
	if fired {
		t.Error("stopped timer fired")
	}
	if timer.state != timerFree {
		t.Error("a stopped timer is not back on the free list")
	}
}

func TestRunUntilLeavesLaterEventsPending(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{5, 10, 15, 20} {
		d := d * time.Millisecond
		s.At(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(12 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if s.Now() != 12*time.Millisecond {
		t.Errorf("Now() = %v, want 12ms", s.Now())
	}
	if len(s.events) != 2 {
		t.Errorf("pending = %d, want 2", len(s.events))
	}
	s.Run()
	if len(fired) != 4 {
		t.Errorf("after Run, fired %d events, want 4", len(fired))
	}
}

func TestEveryFiresPeriodically(t *testing.T) {
	s := New(1)
	var times []time.Duration
	task := s.Every(10*time.Millisecond, 20*time.Millisecond, func() {
		times = append(times, s.Now())
	})
	s.RunUntil(60 * time.Millisecond)
	task.Stop()
	want := []time.Duration{10 * time.Millisecond, 30 * time.Millisecond, 50 * time.Millisecond}
	if len(times) != len(want) {
		t.Fatalf("fired %d times, want %d", len(times), len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("firing %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestTaskStopFromCallback(t *testing.T) {
	s := New(1)
	n := 0
	var task *Task
	task = s.Every(0, time.Millisecond, func() {
		n++
		if n == 2 {
			task.Stop()
		}
	})
	s.Run()
	if n != 2 {
		t.Errorf("task fired %d times, want 2", n)
	}
}

func TestStreamsAreDeterministic(t *testing.T) {
	a := New(42).Stream("loss")
	b := New(42).Stream("loss")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (seed, name) streams diverged")
		}
	}
}

func TestStreamsAreIndependentByName(t *testing.T) {
	s := New(42)
	a, b := s.Stream("a"), s.Stream("b")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams %q and %q coincide on %d/100 draws", "a", "b", same)
	}
}

func TestStreamIsCached(t *testing.T) {
	s := New(7)
	if s.Stream("x") != s.Stream("x") {
		t.Error("Stream returned distinct generators for the same name")
	}
}

// Property: for any set of non-negative offsets, events fire in sorted order.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := New(3)
		var fired []time.Duration
		for _, o := range offsets {
			d := time.Duration(o) * time.Microsecond
			s.At(d, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: RunUntil(t) never executes an event scheduled after t, and always
// leaves Now() == t when t is beyond the last event executed.
func TestPropertyRunUntilBoundary(t *testing.T) {
	f := func(offsets []uint16, bound uint16) bool {
		s := New(9)
		limit := time.Duration(bound) * time.Microsecond
		late := false
		for _, o := range offsets {
			d := time.Duration(o) * time.Microsecond
			s.At(d, func() {
				if s.Now() > limit {
					late = true
				}
			})
		}
		s.RunUntil(limit)
		return !late && s.Now() == limit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
