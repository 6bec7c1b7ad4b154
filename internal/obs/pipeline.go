package obs

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ordered runs a job that is a sequence of pieces through three stages and
// returns the first error consume reports:
//
//   - produce fills the next piece's input into a slot and reports whether
//     there was one; it is called once per piece, in piece order, never
//     concurrently with itself;
//   - work transforms a produced slot; any number run at once, each on its
//     own slot;
//   - consume takes the worked slots one at a time in piece order — the
//     only place results leave the pipeline — and may stop the job with an
//     error.
//
// Pieces occupy a window of 2·GOMAXPROCS+1 recycled slots: piece i lives
// in slot i mod window from its produce until its consume returns, so
// piece i+window cannot be produced before piece i is consumed. That caps
// the memory in flight at window slots whatever the job's length, and lets
// a slot's buffers be reused from piece to piece. With GOMAXPROCS 1 the job
// is the plain serial loop — produce, work, consume, one slot, no
// goroutines.
//
// A panic in produce or work is re-raised in the caller's goroutine when
// its piece comes up for consumption; every goroutine the job started has
// exited by the time ordered returns, error or not.
func ordered[S any](produce func(*S) bool, work func(*S), consume func(*S) error) error {
	procs := runtime.GOMAXPROCS(0)
	if procs == 1 {
		var s S
		for produce(&s) {
			work(&s)
			if pipelineObserver != nil {
				pipelineObserver(1)
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
		free     chan struct{}
		ready    chan struct{}
	}
	window := 2*procs + 1
	slots := make([]slot, window)
	for i := range slots {
		slots[i].free = make(chan struct{}, 1)
		slots[i].free <- struct{}{}
		slots[i].ready = make(chan struct{}, 1)
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
		case <-sl.free:
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
		if n := inFlight.Add(1); pipelineObserver != nil {
			pipelineObserver(int(n))
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
	for range procs {
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
		sl.free <- struct{}{}
	}
}

// pipelineObserver, when set, is told the number of pieces in flight —
// produced and not yet consumed — each time one is produced. Tests set it to
// check the window bound; it is nil otherwise and must not change while a
// job runs.
var pipelineObserver func(inFlight int)
