package link

import (
	"testing"
	"time"

	"rpivideo/internal/sim"
)

// Control-plane packets must traverse the same bearer but never skew the
// media counters the paper's PER statistic is computed from.
func TestControlPacketsExcludedFromMediaCounters(t *testing.T) {
	s := sim.New(1)
	l := New(s, cleanProfile(), nil, nil, s.Stream("link"))
	collect(l)
	for i := 0; i < 100; i++ {
		i := i
		s.At(time.Duration(i)*10*time.Millisecond, func() {
			l.Send(nil, 1250)
			if i%10 == 0 {
				l.SendControl(nil, 28) // an RTCP SR
			}
		})
	}
	s.Run()
	if m := l.Count(Media); m.Sent != 100 || m.Delivered != 100 {
		t.Errorf("media ledger: sent=%d delivered=%d, want 100/100", m.Sent, m.Delivered)
	}
	if c := l.Count(Control); c.Sent != 10 || c.Delivered != 10 {
		t.Errorf("control ledger: sent=%d delivered=%d, want 10/10", c.Sent, c.Delivered)
	}
	if l.QueueBytes() != 0 {
		t.Errorf("queue not drained: %d bytes", l.QueueBytes())
	}
}

// Control losses land in the control ledger, leaving the media PER untouched.
func TestControlLossesSeparatelyCounted(t *testing.T) {
	s := sim.New(7)
	p := cleanProfile()
	p.MeanCapacity, p.MinCapacity = 100e6, 100e6
	p.PER = 0.01
	p.MeanBurstLen = 2
	l := New(s, p, nil, nil, s.Stream("link"))
	collect(l)
	const n = 50_000
	s.At(0, func() {
		for i := 0; i < n; i++ {
			l.SendControl(nil, 28)
		}
	})
	s.Run()
	c := l.Count(Control)
	if c.Dropped[DropLoss] == 0 {
		t.Fatal("lossy link never lost a control packet")
	}
	if m := l.Count(Media); m != (Counts{}) {
		t.Errorf("control traffic leaked into the media ledger: %+v", m)
	}
	if c.Sent != n || c.Delivered+c.Drops() != n {
		t.Errorf("control conservation: %+v", c)
	}
}

// A full media buffer neither tail-drops control packets (their share of the
// bearer is bounded) nor lets control bytes steal media admission space.
func TestControlBytesDoNotOccupyMediaBuffer(t *testing.T) {
	s := sim.New(1)
	p := cleanProfile()
	p.BufferBytes = 10_000
	l := New(s, p, nil, nil, s.Stream("link"))
	collect(l)
	s.At(0, func() {
		for i := 0; i < 8; i++ {
			l.Send(nil, 1250) // fill the 10 KB buffer exactly
		}
		l.SendControl(nil, 28) // must be admitted with the buffer full
		l.Send(nil, 1250)      // media tail drop, not caused by the SR
	})
	s.Run()
	if n := l.Count(Media).Dropped[DropOverflow]; n != 1 {
		t.Errorf("media overflows = %d, want exactly the burst's 9th packet", n)
	}
	if c := l.Count(Control); c.Delivered != 1 || c.Drops() != 0 {
		t.Errorf("control packet not delivered: %+v", c)
	}
}
