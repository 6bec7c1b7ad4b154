package flight

import (
	"math"
	"sort"
	"time"
)

// Above returns the step function t ↦ p.At(t).Alt > thr. The altitude
// effects of the paper are threshold comparisons (loss above 80 m, stalls
// above 100 m, delay by altitude band), so a per-packet caller needs the
// side of the threshold, not the interpolated state.
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
// Like a path's At, the returned function remembers where its last query
// fell and is not safe for concurrent use.
func Above(p Profile, thr float64) func(time.Duration) bool {
	pp, ok := p.(*path)
	if !ok || len(pp.wps) == 0 {
		return func(t time.Duration) bool { return p.At(t).Alt > thr }
	}
	above := func(t time.Duration) bool { return pp.At(t).Alt > thr }
	wps := pp.wps
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
	// The last answer and the interval [from, to) it holds on: queries
	// advance with simulated time, so all but a few dozen of a flight's
	// stay inside it.
	val, from, to := false, time.Duration(0), time.Duration(0)
	return func(t time.Duration) bool {
		if t < from || t >= to {
			n := sort.Search(len(flips), func(k int) bool { return flips[k] > t })
			val, from, to = first != (n&1 == 1), math.MinInt64, math.MaxInt64
			if n > 0 {
				from = flips[n-1]
			}
			if n < len(flips) {
				to = flips[n]
			}
		}
		return val
	}
}
