package link

import (
	"testing"
	"time"

	"rpivideo/internal/flight"
	"rpivideo/internal/sim"
)

func TestQueueDelayEstimate(t *testing.T) {
	s := sim.New(1)
	l := New(s, cleanProfile(), nil, nil, s.Stream("link"))
	collect(l)
	s.At(0, func() {
		for i := 0; i < 100; i++ {
			l.Send(nil, 1250) // 125 KB into a 10 Mbps link = 100 ms backlog
		}
		if got := l.SampleQueueDelay(); got < 80*time.Millisecond || got > 120*time.Millisecond {
			t.Errorf("SampleQueueDelay = %v, want ≈100 ms", got)
		}
		if l.QueueBytes() != 125_000 {
			t.Errorf("QueueBytes = %d", l.QueueBytes())
		}
	})
	s.Run()
	if l.QueueBytes() != 0 {
		t.Errorf("queue not drained: %d bytes", l.QueueBytes())
	}
}

func TestCapacityFluctuatesWithinBounds(t *testing.T) {
	s := sim.New(9)
	p := ProfileFor(0, 0) // urban P1
	l := New(s, p, nil, nil, s.Stream("link"))
	min, max := p.MeanCapacity, p.MeanCapacity
	for i := 0; i < 10000; i++ {
		s.RunUntil(time.Duration(i) * 100 * time.Millisecond)
		// Step the fluctuation explicitly, as packet service does, to
		// exercise the OU process.
		c := l.capacity(s.Now())
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if min < p.MinCapacity-1 {
		t.Errorf("capacity %v fell below the floor %v", min, p.MinCapacity)
	}
	if max <= p.MeanCapacity || min >= p.MeanCapacity {
		t.Errorf("capacity did not fluctuate around the mean: [%v, %v] vs %v", min, max, p.MeanCapacity)
	}
	// Stay within a plausible multiple of the mean.
	if max > 2*p.MeanCapacity {
		t.Errorf("capacity %v implausibly high", max)
	}
}

func TestOutlierStallOnlyAtAltitude(t *testing.T) {
	s := sim.New(3)
	p := cleanProfile()
	p.AltOutlierAbove = 100
	p.AltOutlierRate = 10 // very frequent, for the test
	alt := 0.0
	l := New(s, p, nil, func(time.Duration) flight.State { return flight.State{Alt: alt} }, s.Stream("link"))
	// At ground level the exposure clock must not advance.
	for i := 0; i < 1000; i++ {
		if l.outlierStall(time.Duration(i) * 10 * time.Millisecond) {
			t.Fatal("stall at ground level")
		}
	}
	// At altitude, stalls occur at roughly the configured rate.
	alt = 120
	stalls := 0
	for i := 0; i < 1000; i++ {
		if l.outlierStall(10*time.Second + time.Duration(i)*10*time.Millisecond) {
			stalls++
		}
	}
	// 10 s of exposure at 10/s ≈ 100 events.
	if stalls < 40 || stalls > 250 {
		t.Errorf("stalls = %d over 10 s at rate 10/s", stalls)
	}
}

func TestDropReasonStringer(t *testing.T) {
	if DropLoss.String() != "loss" || DropOverflow.String() != "overflow" {
		t.Error("DropReason stringer")
	}
}

func TestFeedbackLinkLowDelay(t *testing.T) {
	s := sim.New(2)
	l := New(s, FeedbackProfile(), nil, nil, s.Stream("link"))
	got := collect(l)
	for i := 0; i < 100; i++ {
		i := i
		s.At(time.Duration(i)*10*time.Millisecond, func() { l.Send(i, 100) })
	}
	s.Run()
	if len(*got) < 99 { // the tiny PER may drop at most a packet or two
		t.Fatalf("delivered %d of 100 feedback packets", len(*got))
	}
	for _, a := range *got {
		if a.owd > 30*time.Millisecond {
			t.Errorf("feedback OWD = %v, want well under 30 ms", a.owd)
		}
	}
}
