package flight

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// aboveOracle is the comparison Above replaced on the packet path: the
// interpolated altitude against the threshold, at every query.
func aboveOracle(p Profile, thr float64) func(time.Duration) bool {
	return func(t time.Duration) bool { return p.At(t).Alt > thr }
}

// aboveThresholds are the thresholds the simulator uses (link profiles:
// 80, 100; altitude bands: 20, 60, 100), the edges of the trajectory (0,
// 120) and one a rounding error below a cruise level, where the comparison
// is decided by the last bits of the interpolation.
var aboveThresholds = []float64{0, 20, 60, 80, 100, 120, 79.99999999999999}

func aboveProfiles() map[string]Profile {
	return map[string]Profile{
		"standard": StandardFlight(),
		"ground":   GroundProfile(6*time.Minute, rand.New(rand.NewSource(3))),
		"ground2":  GroundProfile(90*time.Second, rand.New(rand.NewSource(8))),
	}
}

// TestAboveMatchesInterpolation holds the step function to the comparison
// it stands for, at random instants (before the start and past the end
// included), on a 1 ms sweep in the order a run queries it, and around
// every instant the comparison flips.
func TestAboveMatchesInterpolation(t *testing.T) {
	for name, p := range aboveProfiles() {
		for _, thr := range aboveThresholds {
			got, want := Above(p, thr), aboveOracle(p, thr)
			check := func(at time.Duration) {
				t.Helper()
				if g, w := got(at), want(at); g != w {
					t.Fatalf("%s thr %v: Above(%d ns) = %v, At().Alt > thr = %v", name, thr, at, g, w)
				}
			}
			span := int64(p.Duration() + 2*time.Second)
			rng := rand.New(rand.NewSource(int64(thr) + 1))
			for i := 0; i < 200_000; i++ {
				check(time.Duration(rng.Int63n(span)) - time.Second)
			}
			prev, flips := want(-time.Second), 0
			for at := -time.Second; at <= p.Duration()+time.Second; at += time.Millisecond {
				check(at)
				if w := want(at); w != prev {
					// The comparison flipped inside the last millisecond:
					// locate the flip, walk the 2 µs around it nanosecond
					// by nanosecond, then probe it out of order.
					prev, flips = w, flips+1
					from := at - time.Millisecond
					flip := from + time.Duration(sort.Search(int(time.Millisecond), func(k int) bool { return want(from+time.Duration(k)) == w }))
					for ns := flip - time.Microsecond; ns <= flip+time.Microsecond; ns++ {
						check(ns)
					}
					for d := time.Duration(0); d <= 3; d++ {
						check(flip + d)
						check(flip - d)
					}
				}
			}
			if name == "standard" && thr > 0 && thr < 120 && flips < 2 {
				t.Errorf("standard thr %v: the sweep saw %d flips, want the climb and the descent", thr, flips)
			}
		}
	}
}

// TestAboveSegmentEnds probes ± 3 ns around every waypoint: a segment's
// last instant, the next one's first and the clamp at the profile's end are
// evaluated by different expressions of At.
func TestAboveSegmentEnds(t *testing.T) {
	for name, p := range aboveProfiles() {
		for _, thr := range aboveThresholds {
			got, want := Above(p, thr), aboveOracle(p, thr)
			for _, w := range p.(*path).wps {
				for d := time.Duration(-3); d <= 3; d++ {
					if at := w.at + d; got(at) != want(at) {
						t.Errorf("%s thr %v: differs at waypoint %v%+d ns", name, thr, w.at, d)
					}
				}
			}
		}
	}
}

// hillProfile is a Profile that is not a path.
type hillProfile struct{}

func (hillProfile) Duration() time.Duration { return time.Minute }
func (hillProfile) At(t time.Duration) State {
	s := t.Seconds()
	return State{Alt: s * (60 - s) / 9} // 0 → 100 m → 0, not piecewise linear
}

func TestAboveForeignProfileEvaluatesAt(t *testing.T) {
	got, want := Above(hillProfile{}, 50), aboveOracle(hillProfile{}, 50)
	ups := 0
	for at := -time.Second; at < 62*time.Second; at += 7 * time.Millisecond {
		if got(at) != want(at) {
			t.Fatalf("differs at %v", at)
		}
		if got(at) {
			ups++
		}
	}
	if ups == 0 {
		t.Error("never above 50 m")
	}
}

// TestAboveEmptyPath: a path without waypoints is at ground level forever.
func TestAboveEmptyPath(t *testing.T) {
	if Above(newPath(nil), -1)(time.Second) != true || Above(newPath(nil), 0)(time.Second) {
		t.Error("empty path: want altitude 0 at every instant")
	}
}

var benchAbove bool

// BenchmarkAbove is the per-packet altitude test of a flight: instants
// advancing 400 µs at a time, as a 25 Mbps stream's packets do. The
// "interpolated" case is the form it replaced.
func BenchmarkAbove(b *testing.B) {
	p := StandardFlight()
	for _, c := range []struct {
		name string
		fn   func(time.Duration) bool
	}{{"step", Above(p, 80)}, {"interpolated", aboveOracle(p, 80)}} {
		b.Run(c.name, func(b *testing.B) {
			dur := p.Duration()
			at := time.Duration(0)
			for i := 0; i < b.N; i++ {
				benchAbove = c.fn(at)
				if at += 400 * time.Microsecond; at > dur {
					at = 0
				}
			}
		})
	}
}
