package link

import (
	"testing"
	"time"

	"rpivideo/internal/sim"
)

// TestCapacityShareScalesServiceTime: a half share doubles the
// serialization time of every packet, exactly as a halved cell capacity
// would.
func TestCapacityShareScalesServiceTime(t *testing.T) {
	s := sim.New(1)
	l := New(s, cleanProfile(), nil, nil, s.Stream("link"))
	l.SetCapacityShare(func(time.Duration) float64 { return 0.5 })
	got := collect(l)
	s.At(0, func() { l.Send(0, 1250) })
	s.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d of 1", len(*got))
	}
	// 1250 bytes at 10 Mbps × share 0.5 = 2 ms serialization + 20 ms OWD.
	owd := (*got)[0].owd
	if owd < 22*time.Millisecond || owd > 23*time.Millisecond {
		t.Errorf("OWD = %v, want ≈22 ms (2 ms serialization at half share)", owd)
	}
}

// TestCapacityShareThroughput: offered load well above the shared rate
// drains at capacity × share.
func TestCapacityShareThroughput(t *testing.T) {
	s := sim.New(1)
	l := New(s, cleanProfile(), nil, nil, s.Stream("link"))
	l.SetCapacityShare(func(time.Duration) float64 { return 0.25 })
	got := collect(l)
	const pkt = 1250
	for at := time.Duration(0); at < 2*time.Second; at += 500 * time.Microsecond {
		at := at
		s.At(at, func() { l.Send(nil, pkt) })
	}
	s.RunUntil(2 * time.Second)
	rate := float64(len(*got)*pkt*8) / 2
	// 10 Mbps × 0.25 = 2.5 Mbps.
	if rate < 2.2e6 || rate > 2.8e6 {
		t.Errorf("delivered rate = %.2f Mbps, want ≈2.5", rate/1e6)
	}
}

// TestCapacityShareQueueDelay: the drain-time estimate reflects the share,
// and a nil share restores sole tenancy.
func TestCapacityShareQueueDelay(t *testing.T) {
	s := sim.New(1)
	// A low MinCapacity so the drain-estimate floor sits far below the
	// shared rate (the floor exists for interruption windows, not shares).
	prof := cleanProfile()
	prof.MinCapacity = 1e5
	l := New(s, prof, nil, nil, s.Stream("link"))
	_ = collect(l)
	// Fill the queue behind a paused clock, then compare drain estimates
	// with and without the share installed.
	s.At(0, func() {
		for i := 0; i < 100; i++ {
			l.Send(i, 1250)
		}
		full := l.SampleQueueDelay()
		l.SetCapacityShare(func(time.Duration) float64 { return 0.5 })
		halved := l.SampleQueueDelay()
		if halved < full*19/10 || halved > full*21/10 {
			t.Errorf("SampleQueueDelay at half share = %v, want ≈2× the full-rate %v", halved, full)
		}
		l.SetCapacityShare(nil)
		if got := l.SampleQueueDelay(); got != full {
			t.Errorf("SampleQueueDelay after clearing the share = %v, want %v", got, full)
		}
	})
	s.Run()
}
