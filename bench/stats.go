package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points of xs computed the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spreads printed here are the ones the driver computes. Fewer than two
// samples give the single value three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4 // after the clamp, as Python does: the ends extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// iqrShare is the interquartile distance as a share of the median — the
// run-to-run spread the driver compares against a metric's bound.
func iqrShare(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[n-1]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return s[n-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*frac
}

// percentileLadder lists the tail percentiles the reports choose from.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// highestPercentile returns the highest ladder percentile that still has
// at least ten of n samples beyond it (the choosing-metrics rule for
// reporting a tail); with fewer than twenty samples only the median
// qualifies.
func highestPercentile(n int) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		if float64(n)*(100-p) >= 1000-1e-6 {
			best = p
		}
	}
	return best
}
