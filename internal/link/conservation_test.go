package link

import (
	"testing"
	"testing/quick"
	"time"

	"rpivideo/internal/sim"
)

// Property: every packet offered to the link is exactly one of delivered,
// radio-lost, overflowed, AQM-dropped, or still queued — never duplicated,
// never vanished.
func TestPropertyLinkConservation(t *testing.T) {
	f := func(seed int64, burstiness uint8, aqm bool) bool {
		s := sim.New(seed)
		p := ProfileFor(0, 0) // urban P1
		p.AQM = aqm
		p.BufferBytes = 200_000 // small buffer to exercise overflow
		l := New(s, p, nil, nil, s.Stream("link"))
		delivered := 0
		l.Deliver = func(any, int, time.Duration, time.Duration) { delivered++ }
		dropped := 0
		l.OnDrop = func(any, int, time.Duration, DropReason) { dropped++ }

		offered := 0
		burst := int(burstiness)%20 + 1
		for at := time.Duration(0); at < 5*time.Second; at += 2 * time.Millisecond {
			at := at
			s.At(at, func() {
				for i := 0; i < burst; i++ {
					l.Send(nil, 1250)
					offered++
				}
			})
		}
		s.RunUntil(20 * time.Second) // drain everything
		inQueue := 0
		if l.QueueBytes() > 0 {
			inQueue = l.QueueBytes() / 1250
		}
		return delivered+dropped+inQueue == offered &&
			l.Delivered == delivered &&
			l.Lost+l.Overflows+l.AQMDrops == dropped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAQMBoundsSojourn(t *testing.T) {
	s := sim.New(4)
	p := cleanProfile() // 10 Mbps deterministic
	p.AQM = true
	l := New(s, p, nil, nil, s.Stream("link"))
	got := collect(l)
	// Offer 13 Mbps (1.3×) for 20 s: without AQM the sojourn would grow to
	// ≈800 ms (buffer limit); with CoDel it must stay bounded near target.
	for at := time.Duration(0); at < 20*time.Second; at += 769 * time.Microsecond {
		at := at
		s.At(at, func() { l.Send(nil, 1250) })
	}
	s.Run()
	if l.AQMDrops == 0 {
		t.Fatal("CoDel never dropped under sustained 1.3× overload")
	}
	// Steady-state (the sqrt control law needs ≈10 s to ramp against a
	// step overload): the tail delay must sit far below the ≈800 ms the
	// unmanaged buffer would reach.
	var worstLate time.Duration
	for _, a := range (*got)[len(*got)*3/4:] {
		if a.owd > worstLate {
			worstLate = a.owd
		}
	}
	if worstLate > 250*time.Millisecond {
		t.Errorf("steady-state worst OWD %v under CoDel, want bounded near target", worstLate)
	}
}
