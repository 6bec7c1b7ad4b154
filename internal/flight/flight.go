// Package flight generates the mobility profiles of the measurement
// campaign: the published UAV trajectory (Appendix A.2, Fig. 11 — vertical
// climbs to 40/80/120 m interleaved with ≈200 m horizontal leaps, ≈6 min of
// air time) and the ground profile (a motorbike moving horizontally at
// similar speeds, with the longer stationary periods the paper notes for the
// ground dataset).
package flight

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// State is the vehicle state at one instant.
type State struct {
	// X, Y are ground coordinates in metres relative to the takeoff point.
	X, Y float64
	// Alt is the altitude above ground in metres.
	Alt float64
	// Speed is the total speed in m/s.
	Speed float64
}

// Profile yields the vehicle state over time.
type Profile interface {
	// At returns the state at elapsed time t, clamped to the profile end.
	At(t time.Duration) State
	// Duration returns the total profile length.
	Duration() time.Duration
}

// waypoint marks a position reached at a given elapsed time.
type waypoint struct {
	at   time.Duration
	x, y float64
	alt  float64
}

// segment holds the per-segment constants of the piecewise-linear
// interpolation, precomputed once so the per-packet At call does no
// square roots. The values are exactly what the interpolation loop used
// to recompute each call, so State results are bit-identical.
type segment struct {
	dx, dy, dz float64
	speed      float64
}

// path is a piecewise-linear Profile.
type path struct {
	wps  []waypoint
	segs []segment // segs[i] describes the segment ending at wps[i]
	// hint caches the segment index found by the last At call. Queries are
	// near-monotonic (channel models sample the trajectory as simulated time
	// advances), so the hint almost always validates and At is O(1) instead
	// of a linear scan per packet. At stays a pure function of t — the hint
	// only short-circuits the search for the same segment.
	hint int
	// flips, on the paths over the shared standard build, is Above's cache
	// of that build's flip lists; nil on every other path.
	flips *flipCache
}

// newPath builds a path and precomputes its segment constants.
func newPath(wps []waypoint) *path {
	p := &path{wps: wps, segs: make([]segment, len(wps))}
	for i := 1; i < len(wps); i++ {
		a, b := wps[i-1], wps[i]
		dx, dy, dz := b.x-a.x, b.y-a.y, b.alt-a.alt
		speed := 0.0
		if span := b.at - a.at; span > 0 {
			speed = dist3(dx, dy, dz) / span.Seconds()
		}
		p.segs[i] = segment{dx: dx, dy: dy, dz: dz, speed: speed}
	}
	return p
}

func (p *path) Duration() time.Duration {
	if len(p.wps) == 0 {
		return 0
	}
	return p.wps[len(p.wps)-1].at
}

func (p *path) At(t time.Duration) State {
	if len(p.wps) == 0 {
		return State{}
	}
	if t <= p.wps[0].at {
		w := p.wps[0]
		return State{X: w.x, Y: w.y, Alt: w.alt}
	}
	last := p.wps[len(p.wps)-1]
	if t >= last.at {
		return State{X: last.x, Y: last.y, Alt: last.alt}
	}
	// Locate the segment (a, b] containing t: the cached hint if it still
	// matches, otherwise a binary search for the first waypoint at or after
	// t — the same segment the original linear scan selected.
	i := p.hint
	if i < 1 || i >= len(p.wps) || t <= p.wps[i-1].at || t > p.wps[i].at {
		i = sort.Search(len(p.wps), func(j int) bool { return p.wps[j].at >= t })
		p.hint = i
	}
	a, b := p.wps[i-1], p.wps[i]
	sg := p.segs[i]
	frac := 0.0
	if span := b.at - a.at; span > 0 {
		frac = float64(t-a.at) / float64(span)
	}
	return State{
		X:     a.x + frac*sg.dx,
		Y:     a.y + frac*sg.dy,
		Alt:   a.alt + frac*sg.dz,
		Speed: sg.speed,
	}
}

func dist3(dx, dy, dz float64) float64 {
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// StandardFlight returns the campaign trajectory of Fig. 11: lift off,
// climb to 40 m, a ≈200 m horizontal leap, repeat at 80 m and 120 m, then a
// straight descent. The median speed is ≈3.6 m/s (13 km/h) and the total
// air time ≈6 min, matching the published numbers. The waypoints and
// segments are built once per process and shared, with Above's flip lists;
// each call returns a new path over them, because At's hint belongs to each
// holder.
func StandardFlight() Profile {
	return &path{wps: standard.wps, segs: standard.segs, flips: standard.flips}
}

// standard is the one build of StandardFlight's trajectory.
var standard = standardPath()

func standardPath() *path {
	const (
		climbSpeed  = 2.0 // m/s
		cruiseSpeed = 3.6 // m/s, 13 km/h
		leap        = 200.0
		hoverPause  = 8 * time.Second
	)
	var wps []waypoint
	at := time.Duration(0)
	x, alt := 0.0, 0.0
	add := func(dur time.Duration, nx, nalt float64) {
		at += dur
		x, alt = nx, nalt
		wps = append(wps, waypoint{at: at, x: x, alt: alt})
	}
	secs := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

	wps = append(wps, waypoint{})
	dir := 1.0
	for _, level := range []float64{40, 80, 120} {
		add(secs((level-alt)/climbSpeed), x, level)
		add(hoverPause, x, level)
		add(secs(leap/cruiseSpeed), x+dir*leap, level)
		add(hoverPause, x, level)
		dir = -dir
	}
	// Return above the takeoff point, then descend straight down to it.
	if x != 0 {
		add(secs(leap/cruiseSpeed), 0, alt)
		add(hoverPause, x, alt)
	}
	add(secs(alt/climbSpeed), x, 0)
	p := newPath(wps)
	p.flips = new(flipCache)
	return p
}

// GroundProfile returns the ground-measurement mobility: horizontal runs at
// motorbike speeds along the same axis, separated by stationary periods
// (the paper notes the ground dataset likely contains longer durations
// without movement). The profile length matches the flight duration so
// air/ground campaigns are comparable; rng drives the idle-period placement.
func GroundProfile(total time.Duration, rng *rand.Rand) Profile {
	const speed = 5.0 // m/s ≈ 18 km/h
	var wps []waypoint
	wps = append(wps, waypoint{})
	at := time.Duration(0)
	x := 0.0
	dir := 1.0
	for at < total {
		// Idle period: 20–80 s.
		idle := time.Duration(20+rng.Intn(61)) * time.Second
		at += idle
		wps = append(wps, waypoint{at: at, x: x})
		if at >= total {
			break
		}
		// Run: 100–400 m.
		run := float64(100 + rng.Intn(301))
		dur := time.Duration(run / speed * float64(time.Second))
		at += dur
		x += dir * run
		wps = append(wps, waypoint{at: at, x: x})
		if x > 600 || x < -600 {
			dir = -dir
		}
	}
	// Clamp the final waypoint to the requested duration.
	wps[len(wps)-1].at = total
	return newPath(wps)
}
