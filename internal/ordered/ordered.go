// Package ordered runs a job that is a sequence of pieces on several
// workers and hands the pieces back in order. It is the module's one engine
// for "work in parallel, consume in index order": the campaign and fleet
// executor (internal/core) and the trace byte path — export, parse and
// registry merge (internal/obs) — are all written on Run.
package ordered

import (
	"sync"
	"sync/atomic"
)

// Run runs a job that is a sequence of pieces through three stages and
// returns the first error consume reports:
//
//   - produce fills the next piece's input into a slot and reports whether
//     there was one; it is called once per piece, in piece order, never
//     concurrently with itself;
//   - work transforms a produced slot; up to workers run at once, each on
//     its own slot;
//   - consume takes the worked slots one at a time in piece order, on the
//     caller's goroutine and outside every lock of Run's — the only place
//     results leave the pipeline — and may stop the job with an error.
//
// Pieces occupy a window of 2·workers+1 recycled slots: piece i lives in
// slot i mod window from its produce until its consume returns, so piece
// i+window cannot be produced before piece i is consumed. That caps the
// pieces in flight at window whatever the job's length, and lets a slot's
// buffers be reused from piece to piece. With workers 1 (or fewer) the job
// is the plain serial loop on the caller's goroutine — produce, work,
// consume, one slot, no goroutines.
//
// A panic in produce or work is re-raised in the caller's goroutine when
// its piece comes up for consumption; every goroutine the job started has
// exited by the time Run returns or panics.
func Run[S any](workers int, produce func(*S) bool, work func(*S), consume func(*S) error) error {
	if workers <= 1 {
		var s S
		for produce(&s) {
			work(&s)
			if observer != nil {
				observer(1)
			}
			if err := consume(&s); err != nil {
				return err
			}
		}
		return nil
	}

	type slot struct {
		s        S
		last     bool // produce found no piece: the job ends here
		panicked any  // what produce or work panicked with, if they did
		ready    chan struct{}
	}
	window := 2*workers + 1
	slots := make([]slot, window)
	// free holds a token per slot no piece holds. Slots are claimed and
	// freed in piece order, so the next claim's token is its own slot's.
	free := make(chan struct{}, window)
	for i := range slots {
		slots[i].ready = make(chan struct{}, 1)
		free <- struct{}{}
	}
	var (
		mu       sync.Mutex // held while claiming and producing a piece
		next     int        // the next piece to produce
		ended    bool       // produce has reported the end (or panicked)
		inFlight atomic.Int64
		quit     = make(chan struct{})
		wg       sync.WaitGroup
	)
	// claim produces the next piece and returns its slot, or nil once the
	// job has ended or been stopped.
	claim := func() (sl *slot) {
		mu.Lock()
		defer mu.Unlock()
		select {
		case <-quit:
			return nil
		default:
		}
		if ended {
			return nil
		}
		sl = &slots[next%window]
		select {
		case <-free:
		case <-quit:
			return nil
		}
		next++
		defer func() {
			if p := recover(); p != nil {
				sl.panicked, sl.last, ended = p, true, true
			}
		}()
		if !produce(&sl.s) {
			sl.last, ended = true, true
			return sl
		}
		if n := inFlight.Add(1); observer != nil {
			observer(int(n))
		}
		return sl
	}
	run := func(sl *slot) {
		defer func() {
			if p := recover(); p != nil {
				sl.panicked = p
			}
		}()
		work(&sl.s)
	}
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sl := claim()
				if sl == nil {
					return
				}
				last := sl.last // the slot is the consumer's once ready
				if !last && sl.panicked == nil {
					run(sl)
				}
				sl.ready <- struct{}{}
				if last {
					return
				}
			}
		}()
	}
	defer func() {
		close(quit)
		wg.Wait()
	}()
	for i := 0; ; i++ {
		sl := &slots[i%window]
		<-sl.ready
		if sl.panicked != nil {
			panic(sl.panicked)
		}
		if sl.last {
			return nil
		}
		err := consume(&sl.s)
		inFlight.Add(-1)
		if err != nil {
			return err
		}
		free <- struct{}{}
	}
}

// observer, when set, is told the number of pieces in flight — produced
// and not yet consumed — each time one is produced.
var observer func(inFlight int)

// SetObserver installs f as the in-flight observer, or removes it when f
// is nil. It is a hook for the tests, here and in the packages written on
// Run, that check the window bound; it must not change while a job runs.
func SetObserver(f func(inFlight int)) { observer = f }
