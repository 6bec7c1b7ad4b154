package flight

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Step is the step function t ↦ p.At(t).Alt > thr that Above builds. The
// altitude effects of the paper are threshold comparisons (loss above
// 80 m, stalls above 100 m, delay by altitude band), so a per-packet caller
// needs the side of the threshold, not the interpolated state.
//
// The zero value is never above. A Step remembers where its last query
// fell and is not safe for concurrent use; its copies share the flip list
// and nothing else.
type Step struct {
	// p and thr answer a Profile that is not one of the package's paths:
	// every query evaluates p.At. p is nil otherwise.
	p   Profile
	thr float64
	// flips are the sorted instants at which the comparison flips, and
	// first its value before the first of them. Read only: the shared
	// standard build's lists are shared by every Step over it.
	flips []time.Duration
	first bool
	// The last answer and the interval [from, to) it holds on: queries
	// advance with simulated time, so all but a few dozen of a flight's
	// stay inside it.
	val      bool
	from, to time.Duration
}

// At reports whether the altitude at t is above the threshold.
func (s *Step) At(t time.Duration) bool {
	if t >= s.from && t < s.to {
		return s.val
	}
	return s.seek(t)
}

// seek answers a query outside the last interval and moves there.
func (s *Step) seek(t time.Duration) bool {
	if s.p != nil {
		return s.p.At(t).Alt > s.thr
	}
	n := sort.Search(len(s.flips), func(k int) bool { return s.flips[k] > t })
	s.val, s.from, s.to = s.first != (n&1 == 1), math.MinInt64, math.MaxInt64
	if n > 0 {
		s.from = s.flips[n-1]
	}
	if n < len(s.flips) {
		s.to = s.flips[n]
	}
	return s.val
}

// Above returns the step function t ↦ p.At(t).Alt > thr.
//
// For the package's own piecewise-linear profiles the function is held as
// the sorted instants at which the comparison flips, found on p's own At:
// inside one segment the interpolated altitude is monotone in t (every
// step of a.alt + float64(t-a.at)/span*dz is monotone under IEEE rounding),
// so the comparison flips at most once there and bisecting integer
// nanoseconds finds where; the segment ends, which At evaluates by other
// expressions, are compared one by one. The result therefore equals the
// comparison at every t, not approximately. Any other Profile is answered
// by evaluating At.
//
// Over StandardFlight the flips of each threshold are found once per
// process and shared (flipCache), so a Step over it allocates nothing.
func Above(p Profile, thr float64) Step {
	pp, ok := p.(*path)
	if !ok || len(pp.wps) == 0 {
		return Step{p: p, thr: thr}
	}
	if pp.flips != nil {
		return pp.flips.get(pp, thr)
	}
	return scanFlips(pp, thr)
}

// scanFlips returns the step of p's comparison against thr, built from
// where it flips (see Above). It moves p's hint.
func scanFlips(p *path, thr float64) Step {
	above := func(t time.Duration) bool { return p.At(t).Alt > thr }
	wps := p.wps
	first := above(wps[0].at) // holds for every t up to the first waypoint
	cur := first
	var flips []time.Duration
	visit := func(t time.Duration) {
		if v := above(t); v != cur {
			flips = append(flips, t)
			cur = v
		}
	}
	for i := 1; i < len(wps); i++ {
		lo, hi := wps[i-1].at+1, wps[i].at-1 // the segment's interior
		if lo <= hi {
			visit(lo)
			if above(hi) != cur {
				// cur holds at lo and not at hi: find the first instant
				// it does not hold.
				n := sort.Search(int(hi-lo), func(k int) bool { return above(lo+1+time.Duration(k)) != cur })
				visit(lo + 1 + time.Duration(n))
			}
		}
		visit(wps[i].at) // the segment end; for the last one, the clamp
	}
	return Step{flips: flips, first: first}
}

// flipCache holds the shared standard build's step of every threshold
// Above was asked for, keyed by the threshold's bits, before any query:
// each copy handed out shares its flip list. Each is found on a path of
// the cache's own, so neither it nor any holder's hint depends on which
// run asked first.
type flipCache struct {
	mu    sync.Mutex
	byThr map[uint64]Step
}

func (c *flipCache) get(p *path, thr float64) Step {
	key := math.Float64bits(thr)
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.byThr[key]
	if !ok {
		st = scanFlips(&path{wps: p.wps, segs: p.segs}, thr)
		if c.byThr == nil {
			c.byThr = make(map[uint64]Step)
		}
		c.byThr[key] = st
	}
	return st
}
