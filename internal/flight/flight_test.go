package flight

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestStandardFlightShape(t *testing.T) {
	p := StandardFlight()
	d := p.Duration()
	if d < 4*time.Minute || d > 8*time.Minute {
		t.Errorf("flight duration = %v, want ≈6 min", d)
	}
	// Starts and ends on the ground at the takeoff point.
	s0 := p.At(0)
	if s0.Alt != 0 || s0.X != 0 {
		t.Errorf("start state = %+v", s0)
	}
	sEnd := p.At(d)
	if sEnd.Alt != 0 {
		t.Errorf("end altitude = %v, want 0", sEnd.Alt)
	}
	if sEnd.X != 0 {
		t.Errorf("end X = %v, want back at takeoff", sEnd.X)
	}
}

func TestStandardFlightReachesAllLevels(t *testing.T) {
	p := StandardFlight()
	levels := map[int]bool{}
	maxAlt := 0.0
	for ts := time.Duration(0); ts <= p.Duration(); ts += time.Second {
		s := p.At(ts)
		if s.Alt > maxAlt {
			maxAlt = s.Alt
		}
		for _, l := range []float64{40, 80, 120} {
			if s.Alt > l-0.5 && s.Alt < l+0.5 {
				levels[int(l)] = true
			}
		}
	}
	if maxAlt > 120.01 {
		t.Errorf("max altitude = %v, regulations cap at 120 m", maxAlt)
	}
	for _, l := range []int{40, 80, 120} {
		if !levels[l] {
			t.Errorf("flight never dwells at %d m", l)
		}
	}
}

func TestStandardFlightLeapDistance(t *testing.T) {
	p := StandardFlight()
	minX, maxX := 0.0, 0.0
	for ts := time.Duration(0); ts <= p.Duration(); ts += time.Second {
		s := p.At(ts)
		if s.X < minX {
			minX = s.X
		}
		if s.X > maxX {
			maxX = s.X
		}
	}
	if maxX-minX < 190 || maxX-minX > 210 {
		t.Errorf("horizontal span = %v m, want ≈200", maxX-minX)
	}
}

func TestStandardFlightSpeeds(t *testing.T) {
	p := StandardFlight()
	maxSpeed := 0.0
	for ts := time.Duration(0); ts <= p.Duration(); ts += 100 * time.Millisecond {
		s := p.At(ts)
		if s.Speed > maxSpeed {
			maxSpeed = s.Speed
		}
		// Moving at one altitude on both sides is a horizontal leap.
		cruise := s.Speed > 0 && p.At(ts-100*time.Millisecond).Alt == s.Alt && p.At(ts+100*time.Millisecond).Alt == s.Alt
		if cruise && (s.Speed < 3 || s.Speed > 4.5) {
			t.Fatalf("cruise speed = %v m/s at %v, want ≈3.6", s.Speed, ts)
		}
	}
	if maxSpeed > 60.0/3.6 {
		t.Errorf("max speed = %v m/s, exceeds the 60 km/h the paper recorded", maxSpeed)
	}
}

// TestStandardFlightSharedBuild: every StandardFlight is its own path over
// the one shared build, so two profiles queried in interleaved order — one
// forwards, one backwards, each moving its own hint — answer exactly as a
// fresh build does at every waypoint and every segment midpoint.
func TestStandardFlightSharedBuild(t *testing.T) {
	fresh := standardPath()
	var at []time.Duration
	for i, w := range fresh.wps {
		at = append(at, w.at)
		if i > 0 {
			at = append(at, (fresh.wps[i-1].at+w.at)/2)
		}
	}
	a, b := StandardFlight(), StandardFlight()
	if a == b {
		t.Fatal("two StandardFlight calls share one path, and so one hint")
	}
	for k := range at {
		fwd, back := at[k], at[len(at)-1-k]
		if got, want := a.At(fwd), fresh.At(fwd); got != want {
			t.Errorf("At(%v) = %+v, a fresh build says %+v", fwd, got, want)
		}
		if got, want := b.At(back), fresh.At(back); got != want {
			t.Errorf("At(%v) = %+v, a fresh build says %+v", back, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { a = StandardFlight() }); n != 1 {
		t.Errorf("StandardFlight allocates %v times, want 1 (its path)", n)
	}
}

func TestStandardFlightClampsOutsideRange(t *testing.T) {
	p := StandardFlight()
	before := p.At(-time.Second)
	after := p.At(p.Duration() + time.Hour)
	if before.Alt != 0 || after.Alt != 0 {
		t.Errorf("clamped states: %+v / %+v", before, after)
	}
}

func TestGroundProfileStaysOnGround(t *testing.T) {
	p := GroundProfile(6*time.Minute, rand.New(rand.NewSource(1)))
	if p.Duration() != 6*time.Minute {
		t.Errorf("duration = %v", p.Duration())
	}
	moved := false
	for ts := time.Duration(0); ts <= p.Duration(); ts += time.Second {
		s := p.At(ts)
		if s.Alt != 0 {
			t.Fatalf("ground profile at altitude %v", s.Alt)
		}
		if s.Speed > 0.1 {
			moved = true
		}
	}
	if !moved {
		t.Error("ground profile never moves")
	}
}

func TestGroundProfileHasIdlePeriods(t *testing.T) {
	p := GroundProfile(6*time.Minute, rand.New(rand.NewSource(2)))
	idle := 0
	total := 0
	for ts := time.Duration(0); ts <= p.Duration(); ts += time.Second {
		total++
		if p.At(ts).Speed < 0.1 {
			idle++
		}
	}
	if frac := float64(idle) / float64(total); frac < 0.2 {
		t.Errorf("idle fraction = %v, the ground dataset should include long stationary periods", frac)
	}
}

func TestGroundProfileDeterministic(t *testing.T) {
	a := GroundProfile(6*time.Minute, rand.New(rand.NewSource(7)))
	b := GroundProfile(6*time.Minute, rand.New(rand.NewSource(7)))
	for ts := time.Duration(0); ts <= a.Duration(); ts += 10 * time.Second {
		if a.At(ts) != b.At(ts) {
			t.Fatalf("same-seed profiles diverge at %v", ts)
		}
	}
}

// Property: states are continuous — no teleporting between close instants.
func TestPropertyFlightContinuity(t *testing.T) {
	p := StandardFlight()
	f := func(ms uint32) bool {
		ts := time.Duration(ms%uint32(p.Duration()/time.Millisecond)) * time.Millisecond
		a := p.At(ts)
		b := p.At(ts + 100*time.Millisecond)
		dx, dy, dz := b.X-a.X, b.Y-a.Y, b.Alt-a.Alt
		// ≤ max speed (60 km/h = 16.7 m/s) × 0.1 s, with slack.
		return dist3(dx, dy, dz) <= 2.0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: altitude never negative, never above the 120 m cap.
func TestPropertyAltitudeBounds(t *testing.T) {
	p := StandardFlight()
	g := GroundProfile(6*time.Minute, rand.New(rand.NewSource(3)))
	f := func(ms uint32) bool {
		ts := time.Duration(ms) * time.Millisecond
		sa, sg := p.At(ts), g.At(ts)
		return sa.Alt >= 0 && sa.Alt <= 120.01 && sg.Alt == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
