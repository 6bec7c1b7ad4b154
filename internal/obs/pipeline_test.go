package obs

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs f at GOMAXPROCS 1, 2 and 4.
func withProcs(t *testing.T, f func(t *testing.T, procs int)) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t, procs)
		})
	}
}

// observeInFlight sets pipelineObserver for the rest of the test and
// returns the largest count it is told.
func observeInFlight(t *testing.T) *atomic.Int64 {
	var peak atomic.Int64
	pipelineObserver = func(n int) {
		for {
			p := peak.Load()
			if int64(n) <= p || peak.CompareAndSwap(p, int64(n)) {
				return
			}
		}
	}
	t.Cleanup(func() { pipelineObserver = nil })
	return &peak
}

// settledGoroutines waits for the goroutine count to come back to want and
// fails the test if it does not within a second.
func settledGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the job", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// square is a job of n pieces whose work sleeps a random few microseconds
// and squares the piece's index.
type square struct{ i, sq int }

func squares(n int) (produce func(*square) bool, work func(*square)) {
	next := 0
	produce = func(s *square) bool {
		if next == n {
			return false
		}
		s.i, s.sq = next, -1
		next++
		return true
	}
	work = func(s *square) {
		time.Sleep(time.Duration(rand.Intn(50)) * time.Microsecond)
		s.sq = s.i * s.i
	}
	return produce, work
}

// TestOrderedConsumesInOrder: whatever order the workers finish in, every
// piece is consumed once, in order, with its work done, and no more than
// 2·GOMAXPROCS+1 pieces are ever in flight.
func TestOrderedConsumesInOrder(t *testing.T) {
	withProcs(t, func(t *testing.T, procs int) {
		peak := observeInFlight(t)
		before := runtime.NumGoroutine()
		for _, n := range []int{0, 1, 3, 500} {
			produce, work := squares(n)
			next := 0
			err := ordered(produce, work, func(s *square) error {
				if s.i != next || s.sq != s.i*s.i {
					return fmt.Errorf("consumed piece %d (square %d), want piece %d done", s.i, s.sq, next)
				}
				next++
				return nil
			})
			if err != nil || next != n {
				t.Fatalf("n=%d: consumed %d pieces, err %v", n, next, err)
			}
		}
		if p := peak.Load(); p > int64(2*procs+1) || p < 1 {
			t.Errorf("%d pieces in flight at most, bound %d", p, 2*procs+1)
		}
		settledGoroutines(t, before)
	})
}

// TestOrderedStopsAtConsumeError: the first error consume returns is the
// job's, nothing is consumed after it, and the workers are gone.
func TestOrderedStopsAtConsumeError(t *testing.T) {
	withProcs(t, func(t *testing.T, procs int) {
		before := runtime.NumGoroutine()
		stop := errors.New("stop")
		produce, work := squares(1000)
		consumed := 0
		err := ordered(produce, work, func(s *square) error {
			consumed++
			if s.i == 37 {
				return stop
			}
			return nil
		})
		if err != stop || consumed != 38 {
			t.Fatalf("err %v after %d pieces, want %v after 38", err, consumed, stop)
		}
		settledGoroutines(t, before)
	})
}

// TestOrderedRaisesPanics: a panic in produce or work comes out of ordered
// in the caller's goroutine when its piece is due, after the pieces before
// it were consumed.
func TestOrderedRaisesPanics(t *testing.T) {
	withProcs(t, func(t *testing.T, procs int) {
		for _, stage := range []string{"produce", "work"} {
			before := runtime.NumGoroutine()
			produce, work := squares(100)
			consumed := 0
			got := func() (p any) {
				defer func() { p = recover() }()
				_ = ordered(func(s *square) bool {
					ok := produce(s)
					if stage == "produce" && s.i == 20 {
						panic(stage)
					}
					return ok
				}, func(s *square) {
					if stage == "work" && s.i == 20 {
						panic(stage)
					}
					work(s)
				}, func(*square) error { consumed++; return nil })
				return nil
			}()
			if got != stage || consumed != 20 {
				t.Errorf("%s: recovered %v after %d pieces, want %q after 20", stage, got, consumed, stage)
			}
			settledGoroutines(t, before)
		}
	})
}
