package link

import (
	"fmt"
	"testing"
	"time"

	"rpivideo/internal/fault"
	"rpivideo/internal/sim"
)

// checkConservation asserts the packet-conservation identity for every
// class: each offered packet is exactly one of delivered, dropped (for any
// of the four reasons), still queued, or in flight.
func checkConservation(t *testing.T, l *Link, label string) {
	t.Helper()
	if err := ledgerBalances(l); err != nil {
		t.Errorf("%s: %v", label, err)
	}
}

// ledgerBalances checks Sent == Delivered + Drops() + queued + in flight per
// class, counting the queued and in-flight packets by walking the two rings,
// independently of the ledger.
func ledgerBalances(l *Link) error {
	queued, inFlight := held(l)
	for c := Media; c < numClasses; c++ {
		n := l.Count(c)
		if got := n.Delivered + n.Drops() + queued[c] + inFlight[c]; got != n.Sent {
			return fmt.Errorf("class %d conservation broken: %+v, queued=%d inflight=%d (sum %d)", c, n, queued[c], inFlight[c], got)
		}
	}
	return nil
}

// held counts each class's packets in the bottleneck queue and in flight.
func held(l *Link) (queued, inFlight [numClasses]int) {
	for i := 0; i < l.queue.Len(); i++ {
		queued[l.queue.At(i).class]++
	}
	for i := 0; i < l.inflight.Len(); i++ {
		inFlight[l.inflight.At(i).class]++
	}
	return queued, inFlight
}

// faultSchedules are the scripted outage shapes the conservation test sweeps.
var faultSchedules = map[string][]fault.Window{
	"none":      nil,
	"mid":       {{Start: 2 * time.Second, Duration: time.Second, Dir: fault.Both}},
	"from-zero": {{Start: 0, Duration: 1500 * time.Millisecond, Dir: fault.Both}},
	"double": {
		{Start: time.Second, Duration: 500 * time.Millisecond, Dir: fault.Both},
		{Start: 3 * time.Second, Duration: 800 * time.Millisecond, Dir: fault.Both},
	},
	// Outage still open when the run ends: packets stay queued.
	"unfinished": {{Start: 4 * time.Second, Duration: time.Hour, Dir: fault.Both}},
}

func TestConservationUnderFaults(t *testing.T) {
	for name, ws := range faultSchedules {
		for _, freeze := range []bool{false, true} {
			label := name + "/flush"
			if freeze {
				label = name + "/freeze"
			}
			s := sim.New(7)
			p := cleanProfile()
			p.PER = 0.01
			p.MeanBurstLen = 3
			p.JitterSigma = 2 * time.Millisecond
			p.BufferBytes = 100_000 // small: overflows during the outage
			l := New(s, p, nil, nil, s.Stream("link"))
			l.Deliver = func(any, int, time.Duration, time.Duration) {}
			l.SetFaults(fault.NewPathLine(ws, fault.Uplink, fault.PathAll), !freeze, 0)
			for at := time.Duration(0); at < 5*time.Second; at += 3 * time.Millisecond {
				at := at
				s.At(at, func() {
					l.Send(nil, 1200)
					if at%(50*time.Millisecond) == 0 {
						l.SendControl(nil, 80)
					}
					if at%(9*time.Millisecond) == 0 {
						l.SendRTX(nil, 1200)
					}
				})
			}
			// Terminate mid-run — possibly mid-outage — and check the books.
			s.RunUntil(5 * time.Second)
			checkConservation(t, l, label)
			if name == "unfinished" {
				if queued, _ := held(l); queued[Media] == 0 {
					t.Errorf("%s: expected packets stranded in the queue at termination", label)
				}
			}
			// Then drain completely (the unfinished window never closes, so
			// only the finite schedules fully drain).
			if name != "unfinished" {
				s.Run()
				checkConservation(t, l, label+"/drained")
				if queued, _ := held(l); queued != [numClasses]int{} {
					t.Errorf("%s: queue not drained: %v by class", label, queued)
				}
			}
		}
	}
}

// TestNoBusyPollDuringOutage is the no-busy-polling acceptance check: a link
// silenced by a scripted window schedules exactly one simulator event — the
// resume — between outage start and end, instead of a 5 ms retry loop.
func TestNoBusyPollDuringOutage(t *testing.T) {
	s := sim.New(1)
	l := New(s, cleanProfile(), nil, nil, s.Stream("link"))
	l.Deliver = func(any, int, time.Duration, time.Duration) {}
	l.SetFaults(fault.NewPathLine([]fault.Window{
		{Start: 0, Duration: 3 * time.Second, Dir: fault.Both},
	}, fault.Uplink, fault.PathAll), true, 0)

	s.At(500*time.Millisecond, func() { l.Send(nil, 1200) })
	pending := -1
	s.At(2*time.Second, func() { pending = pendingEvents(s) })
	s.Run()
	// At t=2 s the send has fired and the probe event has been popped; the
	// only event left must be the single resume at t=3 s.
	if pending != 1 {
		t.Fatalf("pending events mid-outage = %d, want exactly 1 (the resume event)", pending)
	}
	if m := l.Count(Media); m.Delivered != 0 && m.Dropped[DropStale] != 1 {
		t.Fatalf("packet neither held nor flushed: %+v", m)
	}
}

// TestStaleFlushOnResume: with flushing on, packets that sat out the blackout
// are discarded at re-establishment; with freezing, they are delivered late.
func TestStaleFlushOnResume(t *testing.T) {
	run := func(flush bool) (delivered, stale int) {
		s := sim.New(3)
		l := New(s, cleanProfile(), nil, nil, s.Stream("link"))
		l.Deliver = func(any, int, time.Duration, time.Duration) {}
		l.SetFaults(fault.NewPathLine([]fault.Window{
			{Start: 100 * time.Millisecond, Duration: 2 * time.Second, Dir: fault.Both},
		}, fault.Uplink, fault.PathAll), flush, 600*time.Millisecond)
		for i := 0; i < 20; i++ {
			at := 150*time.Millisecond + time.Duration(i)*10*time.Millisecond
			s.At(at, func() { l.Send(nil, 1200) })
		}
		s.Run()
		m := l.Count(Media)
		return m.Delivered, m.Dropped[DropStale]
	}
	if delivered, stale := run(true); stale != 20 || delivered != 0 {
		t.Errorf("flush: delivered=%d stale=%d, want 0/20", delivered, stale)
	}
	if delivered, stale := run(false); stale != 0 || delivered != 20 {
		t.Errorf("freeze: delivered=%d stale=%d, want 20/0", delivered, stale)
	}
}

// TestMonotonicDelivery: jitter widens inter-arrival gaps but never reorders
// within the bearer (RLC in-order delivery).
func TestMonotonicDelivery(t *testing.T) {
	s := sim.New(11)
	p := cleanProfile()
	p.JitterSigma = 30 * time.Millisecond // far above the 1 ms serialization gap
	l := New(s, p, nil, nil, s.Stream("link"))
	var arrivals []time.Duration
	var order []int
	l.Deliver = func(meta any, size int, sentAt, at time.Duration) {
		arrivals = append(arrivals, at)
		order = append(order, meta.(int))
	}
	for i := 0; i < 200; i++ {
		i := i
		s.At(time.Duration(i)*2*time.Millisecond, func() { l.Send(i, 1200) })
	}
	s.Run()
	if len(arrivals) != 200 {
		t.Fatalf("delivered %d of 200", len(arrivals))
	}
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] < arrivals[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, arrivals[i], i-1, arrivals[i-1])
		}
		if order[i] != order[i-1]+1 {
			t.Fatalf("delivery reordered: %d after %d", order[i], order[i-1])
		}
	}
}

// TestRTXStaleFlushAndOrdering: retransmissions queued when an outage opens
// follow the same re-establishment policy as media — flushed when stale,
// and never delivered out of order with the media stream around them (the
// bearer's monotonic clamp spans all classes).
func TestRTXStaleFlushAndOrdering(t *testing.T) {
	s := sim.New(9)
	p := cleanProfile()
	p.JitterSigma = 20 * time.Millisecond
	l := New(s, p, nil, nil, s.Stream("link"))
	var arrivals []time.Duration
	l.Deliver = func(meta any, size int, sentAt, at time.Duration) {
		arrivals = append(arrivals, at)
	}
	l.SetFaults(fault.NewPathLine([]fault.Window{
		{Start: 100 * time.Millisecond, Duration: 2 * time.Second, Dir: fault.Both},
	}, fault.Uplink, fault.PathAll), true, 600*time.Millisecond)
	// RTX and media interleaved into the blackout: everything queued before
	// ≈1.5 s is older than 600 ms at the 2.1 s resume and must flush.
	for i := 0; i < 20; i++ {
		at := 150*time.Millisecond + time.Duration(i)*10*time.Millisecond
		s.At(at, func() {
			l.Send(nil, 1200)
			l.SendRTX(nil, 1200)
		})
	}
	// Fresh traffic near the end of the window survives the flush.
	for i := 0; i < 10; i++ {
		at := 1900*time.Millisecond + time.Duration(i)*10*time.Millisecond
		s.At(at, func() {
			l.Send(nil, 1200)
			l.SendRTX(nil, 1200)
		})
	}
	s.Run()
	m, rtx := l.Count(Media), l.Count(RTX)
	if rtx.Dropped[DropStale] != 20 || m.Dropped[DropStale] != 20 {
		t.Errorf("stale flush: rtx=%d media=%d, want 20/20", rtx.Dropped[DropStale], m.Dropped[DropStale])
	}
	if rtx.Delivered != 10 || m.Delivered != 10 {
		t.Errorf("survivors: rtx=%d media=%d, want 10/10", rtx.Delivered, m.Delivered)
	}
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] < arrivals[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, arrivals[i], i-1, arrivals[i-1])
		}
	}
	checkConservation(t, l, "rtx-outage")
}

// TestDirectionalOutage: an uplink-only window leaves a downlink-filtered
// line untouched.
func TestDirectionalOutage(t *testing.T) {
	ws := []fault.Window{{Start: 0, Duration: time.Second, Dir: fault.Uplink}}
	s := sim.New(5)
	up := New(s, cleanProfile(), nil, nil, s.Stream("up"))
	down := New(s, cleanProfile(), nil, nil, s.Stream("down"))
	up.Deliver = func(any, int, time.Duration, time.Duration) {}
	down.Deliver = func(any, int, time.Duration, time.Duration) {}
	up.SetFaults(fault.NewPathLine(ws, fault.Uplink, fault.PathAll), false, 0)
	down.SetFaults(fault.NewPathLine(ws, fault.Downlink, fault.PathAll), false, 0)
	s.At(100*time.Millisecond, func() {
		up.Send(nil, 1200)
		down.Send(nil, 1200)
	})
	var upAt, downAt time.Duration
	up.Deliver = func(_ any, _ int, _, at time.Duration) { upAt = at }
	down.Deliver = func(_ any, _ int, _, at time.Duration) { downAt = at }
	s.Run()
	if downAt >= 200*time.Millisecond {
		t.Errorf("downlink delivery at %v, want unaffected (~121 ms)", downAt)
	}
	if upAt < time.Second {
		t.Errorf("uplink delivery at %v, want held until the window closes at 1 s", upAt)
	}
}
