package sim

import (
	"math/rand"
	"testing"
	"time"
)

// drawAll draws from every *rand.Rand method, so a stream that differs from
// its oracle in any state a method reads shows up in the returned values.
func drawAll(r *rand.Rand) []float64 {
	var out []float64
	for i := 0; i < 40; i++ {
		out = append(out,
			r.Float64(), r.NormFloat64(), r.ExpFloat64(), float64(r.Float32()),
			float64(r.Intn(1000)), float64(r.Int63n(1<<40)), float64(r.Int31n(7)),
			float64(r.Int63()), float64(r.Int31()), float64(r.Int()),
			float64(r.Uint32()), float64(r.Uint64()))
	}
	for _, v := range r.Perm(9) {
		out = append(out, float64(v))
	}
	s := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	for _, v := range s {
		out = append(out, float64(v))
	}
	// Read keeps a partly used value between calls: odd lengths leave some.
	buf := make([]byte, 13)
	for i := 0; i < 3; i++ {
		r.Read(buf[:5+i])
		for _, b := range buf[:5+i] {
			out = append(out, float64(b))
		}
	}
	return out
}

// TestResetStreamsMatchFresh: after Reset(seed) a stream, recycled from the
// runs before, draws exactly what a fresh New(seed)'s stream of the same
// name draws, whatever its predecessor was left in the middle of — a
// NormFloat64, an ExpFloat64, a partial Read.
func TestResetStreamsMatchFresh(t *testing.T) {
	leave := map[string]func(r *rand.Rand){
		"untouched":   func(*rand.Rand) {},
		"NormFloat64": func(r *rand.Rand) { r.NormFloat64() },
		"ExpFloat64":  func(r *rand.Rand) { r.ExpFloat64() },
		"Read":        func(r *rand.Rand) { r.Read(make([]byte, 3)) },
		"everything":  func(r *rand.Rand) { drawAll(r) },
	}
	names := []string{"cell", "uplink", "downlink", "encoder"}
	for what, left := range leave {
		recycled := New(7)
		for _, name := range names {
			left(recycled.Stream(name))
		}
		for _, seed := range []int64{7, 11, -3} {
			recycled.Reset(seed)
			fresh := New(seed)
			// Ask in another order than the predecessor did, and for a name
			// it never used: a stream's values depend on (seed, name) alone.
			for _, name := range []string{"encoder", "ground", "cell", "downlink"} {
				got, want := drawAll(recycled.Stream(name)), drawAll(fresh.Stream(name))
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("left mid-%s, reset to %d: stream %q draw %d = %v, fresh %v", what, seed, name, i, got[i], want[i])
					}
				}
				left(recycled.Stream(name))
			}
			if recycled.Stream("cell") != recycled.Stream("cell") {
				t.Fatal("a recycled stream is not cached by name")
			}
		}
	}
}

// TestResetStartsOver: a reset simulator has its clock, events, sequence
// numbers, reservations and timer high-water mark back at zero, runs a
// schedule exactly as a new one does, and a timer handle kept from before
// the reset stops nothing.
func TestResetStartsOver(t *testing.T) {
	schedule := func(s *Simulator, got *[]int) {
		s.Every(0, 3*time.Millisecond, func() { *got = append(*got, int(s.Now()/time.Millisecond)) })
		for i := 0; i < 5; i++ {
			i := i
			s.After(time.Duration(i)*time.Millisecond, func() { *got = append(*got, 100+i) })
		}
	}
	var want []int
	fresh := New(1)
	schedule(fresh, &want)
	fresh.RunUntil(20 * time.Millisecond)

	s := New(1)
	var stale []*Timer
	for i := 0; i < 50; i++ {
		stale = append(stale, s.After(time.Duration(i)*time.Second, func() {}))
	}
	s.Reserve()
	s.RunUntil(10 * time.Second) // leaves timers pending and one reservation open
	s.Reset(1)
	if s.Now() != 0 || len(s.events) != 0 || s.Scheduled() != 0 || s.TimerHighWater() != 0 || s.seed != 1 {
		t.Fatalf("after Reset: now %v, pending %d, scheduled %d, timers %d, seed %d",
			s.Now(), len(s.events), s.Scheduled(), s.TimerHighWater(), s.seed)
	}
	var got []int
	schedule(s, &got)
	for _, tm := range stale {
		tm.Stop()
	}
	s.RunUntil(20 * time.Millisecond)
	if len(got) != len(want) {
		t.Fatalf("reset run fired %v, fresh %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reset run fired %v, fresh %v", got, want)
		}
	}
	if s.Scheduled() != fresh.Scheduled() || s.TimerHighWater() != fresh.TimerHighWater() {
		t.Errorf("scheduled %d, timers %d; fresh %d, %d", s.Scheduled(), s.TimerHighWater(), fresh.Scheduled(), fresh.TimerHighWater())
	}
}
