package link

import (
	"testing"
	"time"

	"rpivideo/internal/fault"
	"rpivideo/internal/obs"
	"rpivideo/internal/sim"
)

// TestTraceSendRecvPairs checks that every delivered packet produces a
// send/recv event pair sharing one packet id, with the recv's V carrying
// the one-way delay in milliseconds.
func TestTraceSendRecvPairs(t *testing.T) {
	s := sim.New(1)
	l := New(s, cleanProfile(), nil, nil, s.Stream("link"))
	tr := obs.New(0)
	l.SetTracer(tr, obs.DirUp)
	collect(l)
	for i := 0; i < 5; i++ {
		s.At(time.Duration(i)*10*time.Millisecond, func() { l.Send(i, 1250) })
	}
	s.Run()

	sends := map[int64]obs.Event{}
	recvs := map[int64]obs.Event{}
	for _, e := range tr.Events() {
		if e.Dir != obs.DirUp {
			t.Fatalf("event with wrong direction: %+v", e)
		}
		switch e.Kind {
		case obs.KindSend:
			sends[e.Seq] = e
		case obs.KindRecv:
			recvs[e.Seq] = e
		default:
			t.Fatalf("unexpected event kind %v on a clean link", e.Kind)
		}
	}
	if len(sends) != 5 || len(recvs) != 5 {
		t.Fatalf("got %d sends / %d recvs, want 5/5", len(sends), len(recvs))
	}
	for id, snd := range sends {
		rcv, ok := recvs[id]
		if !ok {
			t.Fatalf("send id %d has no recv", id)
		}
		if snd.Aux != 1250 || rcv.Aux != 1250 {
			t.Errorf("id %d sizes: send %d recv %d, want 1250", id, snd.Aux, rcv.Aux)
		}
		owdMs := float64(rcv.T-snd.T) / float64(time.Millisecond)
		if rcv.V != owdMs {
			t.Errorf("id %d recv V = %g, want OWD %g ms", id, rcv.V, owdMs)
		}
		// 1250 bytes at 10 Mbps = 1 ms serialization + 20 ms OWD.
		if owdMs < 20 || owdMs > 23 {
			t.Errorf("id %d OWD %g ms, want ≈21", id, owdMs)
		}
	}
}

// TestTraceOutageEvents checks that a scripted fault window produces one
// outage-start/outage-end pair bracketing the window, and that stale-drop
// events name the flushed packets.
func TestTraceOutageEvents(t *testing.T) {
	s := sim.New(2)
	l := New(s, cleanProfile(), nil, nil, s.Stream("link"))
	tr := obs.New(0)
	l.SetTracer(tr, obs.DirUp)
	line := fault.NewPathLine([]fault.Window{{Start: 100 * time.Millisecond, Duration: 2 * time.Second, Dir: fault.Both}}, fault.Uplink, fault.PathAll)
	l.SetFaults(line, true, 600*time.Millisecond)
	collect(l)
	s.Every(0, 50*time.Millisecond, func() {
		if s.Now() < 3*time.Second {
			l.Send(int(s.Now()/time.Millisecond), 1250)
		}
	})
	s.RunUntil(4 * time.Second)

	var starts, ends, stales int
	var startAt, endAt time.Duration
	for _, e := range tr.Events() {
		switch e.Kind {
		case obs.KindOutageStart:
			starts++
			startAt = e.T
		case obs.KindOutageEnd:
			ends++
			endAt = e.T
			if wantMs := float64(e.T-startAt) / float64(time.Millisecond); e.V != wantMs {
				t.Errorf("outage-end V = %g, want %g", e.V, wantMs)
			}
		case obs.KindDrop:
			if DropReason(e.Aux) == DropStale {
				stales++
			}
		}
	}
	if starts != 1 || ends != 1 {
		t.Fatalf("outage events: %d starts / %d ends, want 1/1", starts, ends)
	}
	if startAt < 100*time.Millisecond || endAt < 2100*time.Millisecond {
		t.Errorf("outage window [%v, %v] does not bracket the scripted [100ms, 2.1s]", startAt, endAt)
	}
	if stales == 0 {
		t.Error("no stale-drop events despite a flushed backlog")
	}
	if n := l.Count(Media).Dropped[DropStale]; stales != n {
		t.Errorf("stale-drop events %d != media ledger's stale drops %d", stales, n)
	}
}

// TestSendPathZeroAllocTraceDisabled pins the hot-path contract from the
// observability design: with tracing disabled (nil tracer), the per-packet
// trace guard adds zero allocations. The overflow path is used because it
// is pure bookkeeping — no queue append, no simulator event — so any
// allocation measured here would come from the tracing seam itself.
func TestSendPathZeroAllocTraceDisabled(t *testing.T) {
	prof := cleanProfile()
	prof.BufferBytes = 1 // every media packet overflows
	s := sim.New(3)
	l := New(s, prof, nil, nil, s.Stream("link"))
	l.Deliver = func(any, int, time.Duration, time.Duration) {}
	if allocs := testing.AllocsPerRun(1000, func() {
		l.Send(nil, 1250)
	}); allocs != 0 {
		t.Errorf("untraced send path allocates %.1f/op, want 0", allocs)
	}

	// The same path with a warm ring tracer attached must not allocate
	// either: Emit writes into preallocated storage.
	l.SetTracer(obs.New(1024), obs.DirUp)
	if allocs := testing.AllocsPerRun(1000, func() {
		l.Send(nil, 1250)
	}); allocs != 0 {
		t.Errorf("ring-traced send path allocates %.1f/op, want 0", allocs)
	}
}
