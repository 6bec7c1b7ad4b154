package link

import (
	"reflect"
	"testing"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
	"rpivideo/internal/flight"
	"rpivideo/internal/obs"
	"rpivideo/internal/sim"
)

// reuseRun is what one link did with a schedule: deliveries, drops, trace
// and ledger.
type reuseRun struct {
	got, drops []landed
	trace      []obs.Event
	ledger     [numClasses]Counts
}

// reuseSchedule drives a link from newLink through 5 s of three-class
// traffic at 104–114 m (above both altitude thresholds, with stalls made
// frequent) with an outage, a loss fade and a burst that fills the buffer.
func reuseSchedule(newLink func(*sim.Simulator, Profile, func(time.Duration) flight.State) *Link) reuseRun {
	s := sim.New(9)
	p := ProfileFor(cell.Urban, cell.P1)
	p.BufferBytes = 300_000
	p.AltOutlierRate = 5
	std := flight.StandardFlight()
	l := newLink(s, p, func(t time.Duration) flight.State { return std.At(t + 195*time.Second) })
	var r reuseRun
	tr := obs.New(0)
	l.SetTracer(tr, obs.DirUp)
	l.SetFaults(fault.NewPathLine([]fault.Window{
		{Start: 2 * time.Second, Duration: 700 * time.Millisecond, Dir: fault.Both},
		{Start: 3500 * time.Millisecond, Duration: 40 * time.Millisecond, Dir: fault.Both, Loss: true},
	}, fault.Uplink, fault.PathAll), true, 0)
	l.Deliver = func(meta any, size int, sentAt, at time.Duration) {
		r.got = append(r.got, landed{meta, size, sentAt, at})
	}
	l.OnDrop = func(meta any, size int, sentAt time.Duration, _ Class, _ DropReason) {
		r.drops = append(r.drops, landed{meta, size, sentAt, s.Now()})
	}
	n := 0
	s.Every(0, 400*time.Microsecond, func() {
		if n++; s.Now() < 5*time.Second {
			l.Send(n, 1200)
			if n%40 == 0 {
				l.SendControl(-n, 80)
			}
			if n%9 == 0 {
				l.SendRTX(1_000_000+n, 1200)
			}
		}
	})
	s.RunUntil(6 * time.Second)
	r.trace = tr.Events()
	r.ledger = l.ledger
	return r
}

// TestLinkFromBuffersMatchesNew: a link Buffers.Link hands out again, after
// a link with other settings — capacity share, AQM, a tracer, the shared
// standard flight's altitude steps — was left with packets queued and in
// flight, does what a new link does: the same deliveries, drops, trace and
// ledger. It is the same Link over the rings the first one grew.
func TestLinkFromBuffersMatchesNew(t *testing.T) {
	var b Buffers
	s := sim.New(3)
	p := ProfileFor(cell.Urban, cell.P1)
	p.AQM = true
	first := b.Link(s, p, nil, nil, s.Stream("other"))
	first.SetFlight(flight.StandardFlight())
	first.SetCapacityShare(func(time.Duration) float64 { return 0.2 })
	first.SetTracer(obs.New(0), obs.DirDown)
	first.Deliver = func(any, int, time.Duration, time.Duration) {}
	s.Every(0, 200*time.Microsecond, func() { first.Send(nil, 1200) })
	s.RunUntil(3 * time.Second)
	if first.queue.Len() == 0 || first.inflight.Len() == 0 {
		t.Fatalf("the first link holds %d queued and %d in flight, want both", first.queue.Len(), first.inflight.Len())
	}
	grown := first.queue.Cap()

	var again *Link
	got := reuseSchedule(func(s *sim.Simulator, p Profile, state func(time.Duration) flight.State) *Link {
		again = b.Link(s, p, nil, state, s.Stream("link"))
		return again
	})
	want := reuseSchedule(func(s *sim.Simulator, p Profile, state func(time.Duration) flight.State) *Link {
		return New(s, p, nil, state, s.Stream("link"))
	})
	if again != first || again.queue.Cap() < grown {
		t.Errorf("Buffers.Link returned %p with %d queue slots, want %p with the %d the first link grew", again, again.queue.Cap(), first, grown)
	}
	if len(want.got) == 0 || want.ledger[Media].Dropped[DropStale] == 0 || want.ledger[Media].Dropped[DropOverflow] == 0 {
		t.Fatalf("the schedule delivers %d packets with ledger %+v: it does not exercise the link", len(want.got), want.ledger[Media])
	}
	if !reflect.DeepEqual(got.got, want.got) || !reflect.DeepEqual(got.drops, want.drops) {
		t.Errorf("reused link: %d deliveries and %d drops, a new one %d and %d", len(got.got), len(got.drops), len(want.got), len(want.drops))
	}
	if !reflect.DeepEqual(got.trace, want.trace) || got.ledger != want.ledger {
		t.Errorf("reused link: trace of %d events and ledger %+v, a new one %d and %+v", len(got.trace), got.ledger, len(want.trace), want.ledger)
	}
}
