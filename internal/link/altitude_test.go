package link

import (
	"reflect"
	"testing"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/flight"
	"rpivideo/internal/obs"
	"rpivideo/internal/sim"
)

// flightTrace runs a 3 Mbps stream over one whole standard flight through a
// link whose altitude effects are built by wire, with the loss and stall
// rates raised so that both effects fire hundreds of times. It returns the
// trace (every send, drop and arrival with its time) and the media ledger.
func flightTrace(wire func(s *sim.Simulator, p Profile, prof flight.Profile) *Link) (*obs.Tracer, Counts) {
	s := sim.New(5)
	prof := flight.StandardFlight()
	p := ProfileFor(cell.Urban, cell.P1)
	p.AltLossFactor = 40 // loss above 80 m
	p.AltOutlierRate = 2 // stalls above 100 m
	l := wire(s, p, prof)
	tr := obs.New(0)
	l.SetTracer(tr, obs.DirUp)
	l.Deliver = func(any, int, time.Duration, time.Duration) {}
	var send func()
	send = func() {
		if s.Now() < prof.Duration() {
			l.Send(nil, 1200)
			s.After(3200*time.Microsecond, send)
		}
	}
	s.After(0, send)
	s.Run()
	return tr, l.Count(Media)
}

// TestSetFlightMatchesStateClosure: a link given the profile (step
// functions) and a link given a state closure (the vehicle state
// interpolated per packet, as every link was built before SetFlight) lose,
// stall and deliver the same packets at the same times, and differ from a
// link with no mobility at all.
func TestSetFlightMatchesStateClosure(t *testing.T) {
	got, gotN := flightTrace(func(s *sim.Simulator, p Profile, prof flight.Profile) *Link {
		l := New(s, p, nil, nil, s.Stream("link"))
		l.SetFlight(prof)
		return l
	})
	want, wantN := flightTrace(func(s *sim.Simulator, p Profile, prof flight.Profile) *Link {
		return New(s, p, nil, prof.At, s.Stream("link"))
	})
	ground, groundN := flightTrace(func(s *sim.Simulator, p Profile, _ flight.Profile) *Link {
		return New(s, p, nil, nil, s.Stream("link"))
	})
	if gotN != wantN || !reflect.DeepEqual(got.Events(), want.Events()) {
		t.Errorf("SetFlight: media ledger %+v, state closure %+v; traces equal: %v",
			gotN, wantN, reflect.DeepEqual(got.Events(), want.Events()))
	}
	if lost, wantLost := groundN.Dropped[DropLoss], wantN.Dropped[DropLoss]; lost >= wantLost || reflect.DeepEqual(ground.Events(), want.Events()) {
		t.Errorf("the altitude effects did not fire: lost %d on the ground, %d in flight", lost, wantLost)
	}
}
