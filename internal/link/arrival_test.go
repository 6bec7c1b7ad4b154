package link

import (
	"reflect"
	"testing"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
	"rpivideo/internal/obs"
	"rpivideo/internal/sim"
)

// perPacketTimers turns l into the oracle for the arrival ring: the link as
// it was when every in-flight packet held its own simulator timer, scheduled
// with a plain At at the moment the packet left the bottleneck. Everything
// but the holding of arrivals is the link's own code.
func perPacketTimers(l *Link) {
	l.servedFn = func() {
		pkt := l.dequeueHead()
		at := l.depart()
		l.sim.At(at, func() { l.land(pkt) })
		l.serveNext()
	}
}

type landed struct {
	meta       any
	size       int
	sentAt, at time.Duration
}

// arrivalSchedule drives one link through a slow phase (the arrival ring's
// head walks round its first 16 slots), a burst (the ring grows with
// packets in flight and its head mid-buffer), an outage with a stale flush,
// a loss fade and a second burst, all three classes throughout. It returns
// every delivery and drop, the trace, and the most simulator events that
// were pending whenever a packet landed.
func arrivalSchedule(oracle bool) (l *Link, got []landed, drops []landed, tr *obs.Tracer, maxPending int) {
	s := sim.New(7)
	p := ProfileFor(cell.Urban, cell.P1) // jitter, burst loss, OU capacity
	p.BaseOWD = 30 * time.Millisecond
	p.BufferBytes = 400_000 // the outage overflows it
	l = New(s, p, nil, nil, s.Stream("link"))
	if oracle {
		perPacketTimers(l)
	}
	tr = obs.New(0)
	l.SetTracer(tr, obs.DirUp)
	l.SetFaults(fault.NewPathLine([]fault.Window{
		{Start: 2 * time.Second, Duration: 900 * time.Millisecond, Dir: fault.Both},
		{Start: 3500 * time.Millisecond, Duration: 40 * time.Millisecond, Dir: fault.Both, Loss: true},
	}, fault.Uplink, fault.PathAll), true, 0)
	l.Deliver = func(meta any, size int, sentAt, at time.Duration) {
		got = append(got, landed{meta, size, sentAt, at})
		if n := pendingEvents(s); n > maxPending {
			maxPending = n
		}
	}
	l.OnDrop = func(meta any, size int, sentAt time.Duration, _ Class, _ DropReason) {
		drops = append(drops, landed{meta, size, sentAt, s.Now()})
	}
	// One self-rescheduling sender: 500 pkt/s, 3 000 pkt/s in the bursts
	// (under capacity, so the backlog the outage strands holds every class).
	n := 0
	var send func()
	send = func() {
		now := s.Now()
		if now >= 5*time.Second {
			return
		}
		n++
		l.Send(n, 1200)
		if n%40 == 0 {
			l.SendControl(-n, 80)
		}
		if n%7 == 0 {
			l.SendRTX(1_000_000+n, 1200)
		}
		gap := 2 * time.Millisecond
		if sec := now / time.Second; sec == 1 || sec == 4 {
			gap = 333 * time.Microsecond
		}
		s.After(gap, send)
	}
	s.After(0, send)
	s.Run()
	return l, got, drops, tr, maxPending
}

// TestArrivalRingMatchesPerPacketTimers: holding arrivals in a ring with one
// armed timer delivers exactly what, when and in the order one timer per
// packet does, with at most one arrival in the simulator at a time.
func TestArrivalRingMatchesPerPacketTimers(t *testing.T) {
	l, got, drops, tr, maxPending := arrivalSchedule(false)
	ol, want, wantDrops, otr, oracleMaxPending := arrivalSchedule(true)

	if len(got) != len(want) || len(drops) != len(wantDrops) {
		t.Fatalf("%d deliveries and %d drops, oracle %d and %d", len(got), len(drops), len(want), len(wantDrops))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d: %+v, oracle %+v", i, got[i], want[i])
		}
	}
	if !reflect.DeepEqual(drops, wantDrops) {
		t.Error("drops differ from the oracle's")
	}
	if !reflect.DeepEqual(tr.Events(), otr.Events()) {
		t.Error("trace differs from the oracle's")
	}
	for c := Media; c < numClasses; c++ {
		if got, want := l.Count(c), ol.Count(c); got != want {
			t.Errorf("class %d ledger %+v, oracle %+v", c, got, want)
		}
	}
	m, ctrl, rtx := l.Count(Media), l.Count(Control), l.Count(RTX)
	for _, c := range []struct {
		name string
		n    int
	}{
		{"media delivered", m.Delivered}, {"media lost", m.Dropped[DropLoss]},
		{"media overflows", m.Dropped[DropOverflow]}, {"media stale", m.Dropped[DropStale]},
		{"control delivered", ctrl.Delivered}, {"control dropped", ctrl.Drops()},
		{"rtx delivered", rtx.Delivered}, {"rtx stale", rtx.Dropped[DropStale]},
	} {
		if c.n == 0 {
			t.Errorf("%s = 0: the schedule does not exercise it", c.name)
		}
	}
	checkConservation(t, l, "drained")
	if l.inflight.Len() != 0 || l.arrivals.Len() != 0 {
		t.Errorf("drained link still has packets in flight: rings %d/%d", l.inflight.Len(), l.arrivals.Len())
	}

	// As a packet lands the simulator holds at most the sender, the
	// bottleneck's serve or resume timer and the next arrival.
	if maxPending > 3 {
		t.Errorf("up to %d events pending at a delivery, want ≤ 3 (sender, serve, one arrival)", maxPending)
	}
	if oracleMaxPending < 100 {
		t.Errorf("oracle peaked at %d pending events: the bursts do not fill the link", oracleMaxPending)
	}
	if l.arrivals.Cap() < 128 || l.arrivals.Cap() != l.inflight.Cap() {
		t.Errorf("arrival ring has %d slots beside %d packet slots, want both grown to ≥ 128",
			l.arrivals.Cap(), l.inflight.Cap())
	}
}

// packetLoad is a 2 000 pkt/s media stream over the urban uplink: each step
// is one send, one serialization and one arrival, with about fifty packets
// in propagation.
type packetLoad struct {
	s    *sim.Simulator
	l    *Link
	meta *int
	got  int
}

func warmPacketLoad() *packetLoad {
	s := sim.New(1)
	pl := &packetLoad{s: s, meta: new(int)}
	pl.l = New(s, ProfileFor(cell.Urban, cell.P1), nil, nil, s.Stream("link"))
	pl.l.Deliver = func(any, int, time.Duration, time.Duration) { pl.got++ }
	s.Every(0, 500*time.Microsecond, func() { pl.l.Send(pl.meta, 1200) })
	s.RunUntil(2 * time.Second)
	return pl
}

func (pl *packetLoad) step() { pl.s.RunUntil(pl.s.Now() + 500*time.Microsecond) }

// BenchmarkLinkPacket is one packet through the link: send, serve, arrive.
func BenchmarkLinkPacket(b *testing.B) {
	pl := warmPacketLoad()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.step()
	}
}

// TestLinkPacketSteadyStateAllocations pins the packet path at zero
// allocations once the rings and the timer pool are warm, with one arrival
// timer standing for everything in flight.
func TestLinkPacketSteadyStateAllocations(t *testing.T) {
	pl := warmPacketLoad()
	if n := testing.AllocsPerRun(5000, pl.step); n != 0 {
		t.Errorf("a packet allocates %.3f times, want 0", n)
	}
	if fm := pl.l.inflight.Len(); fm < 40 || pendingEvents(pl.s) > 3 || pl.s.TimerHighWater() > 4 {
		// The fourth timer is the arrival being fired while it arms the next.
		t.Errorf("%d packets in flight on %d pending events (%d timers ever), want ≥ 40 on ≤ 3 (4)",
			fm, pendingEvents(pl.s), pl.s.TimerHighWater())
	}
	if pl.got < 8_000 {
		t.Errorf("only %d packets delivered", pl.got)
	}
}

// pendingEvents is the number of events s has scheduled and not yet fired or
// stopped, read from its unexported pending set: nothing outside the
// simulator asks.
func pendingEvents(s *sim.Simulator) int {
	return reflect.ValueOf(s).Elem().FieldByName("events").Len()
}
