package main

import (
	"sync"
	"time"
)

// The reference kernel is a fixed piece of work that has nothing to do
// with the simulator: a small discrete-event loop of its own (binary heap,
// one heap-allocated payload per event, a map update, a buffer now and
// then, so the garbage collector takes part). It is timed right before and
// right after every timed round. On a shared host the machine itself runs
// faster and slower over seconds and minutes; the kernel runs slower in
// the same spells, so the ratio of a round's wall time to its
// neighbouring kernel times repeats where the wall time alone does not.
//
// The kernel is frozen with the workloads: changing it changes every
// reported timing.
const (
	refKernelEvents = 300_000
	refKernelLanes  = 2 // one per worker the workloads are allowed
	// refKernelSeconds is the nominal kernel time: timings are reported as
	// they would read on a host that runs the kernel in exactly this long.
	// It is this sandbox's quiet-host time, so corrected values read close
	// to what an idle machine of this kind measures.
	refKernelSeconds = 0.050
)

type refEvent struct {
	at      int64
	seq     uint64
	payload *[4]int64
}

// refLess orders events by time, then by insertion.
func refLess(a, b refEvent) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func refPush(h []refEvent, e refEvent) []refEvent {
	h = append(h, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !refLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func refPop(h []refEvent) (refEvent, []refEvent) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && refLess(h[l], h[m]) {
			m = l
		}
		if r < n && refLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top, h
}

// refLane runs one lane of the kernel and returns a checksum, so the
// compiler keeps the work.
func refLane(events int) int64 {
	var h []refEvent
	for i := 0; i < 512; i++ {
		h = refPush(h, refEvent{at: int64(i), seq: uint64(i), payload: new([4]int64)})
	}
	x := uint64(88172645463325252)
	tally := make(map[uint64]int64, 1024)
	var buffers [][]float64
	var sum int64
	for i := 0; i < events; i++ {
		var e refEvent
		e, h = refPop(h)
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		e.payload[0] += e.at
		tally[x&1023] += e.at
		sum += e.payload[0]
		h = refPush(h, refEvent{at: e.at + int64(x%1000), seq: uint64(512 + i), payload: new([4]int64)})
		if i%64 == 0 {
			if buffers = append(buffers, make([]float64, 128)); len(buffers) > 1000 {
				buffers = buffers[:0]
			}
		}
	}
	return sum + tally[0]
}

// refKernel runs the kernel once, all lanes at the same time, and returns
// its wall time.
func refKernel() time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	sums := make([]int64, refKernelLanes)
	for l := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[l] = refLane(refKernelEvents)
		}()
	}
	wg.Wait()
	d := time.Since(t0)
	if sums[0] != sums[refKernelLanes-1] {
		panic("bench: the reference kernel's lanes disagree") // a deterministic loop cannot
	}
	return d
}

// hostSlowdown is how much slower than nominal the host ran around round
// r, where kernels[r] was timed right before the round and kernels[r+1]
// right after it: the median of the four kernel timings nearest the round,
// two on either side. One timing is a short sample and a single hiccup
// doubles it; the median of four follows the host's drift and ignores one
// bad sample.
func hostSlowdown(kernels []float64, r int) float64 {
	lo, hi := r-1, r+3
	if lo < 0 {
		lo = 0
	}
	if hi > len(kernels) {
		hi = len(kernels)
	}
	return median(kernels[lo:hi]) / refKernelSeconds
}
