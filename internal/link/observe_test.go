package link

import (
	"fmt"
	"testing"
	"time"

	"rpivideo/internal/sim"
)

// runObserved drives a fluctuating link with deterministic traffic and
// returns a transcript of every delivery. When observe is true, a periodic
// task additionally calls the exported observers mid-run — which must not
// perturb the transcript by a single nanosecond, or a dashboard probe would
// change experiment results.
func runObserved(seed int64, observe bool) string {
	s := sim.New(seed)
	p := ProfileFor(0, 0) // urban P1: OU capacity fluctuation, jitter, PER
	l := New(s, p, nil, nil, s.Stream("link"))
	got := collect(l)
	for i := 0; i < 400; i++ {
		i := i
		s.At(time.Duration(i)*5*time.Millisecond, func() { l.Send(i, 1200) })
	}
	if observe {
		s.Every(0, time.Millisecond, func() {
			_ = l.peekCapacity()
			_ = l.queueDelay()
			_ = l.QueueBytes()
		})
	}
	s.RunUntil(3 * time.Second)
	out := ""
	for _, a := range *got {
		out += fmt.Sprintf("%d %d %d\n", a.meta.(int), a.owd, a.at)
	}
	return out
}

// TestObserversDoNotPerturbRun pins the satellite fix for the
// capacity-observation bug: peekCapacity and queueDelay used to advance the
// Ornstein–Uhlenbeck capacity process (drawing RNG), so merely *looking* at
// a link mid-run changed where packets landed. Both are pure peeks now.
func TestObserversDoNotPerturbRun(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		plain := runObserved(seed, false)
		watched := runObserved(seed, true)
		if plain != watched {
			t.Fatalf("seed %d: observing peekCapacity/queueDelay mid-run changed the delivery transcript", seed)
		}
		if plain != runObserved(seed, false) {
			t.Fatalf("seed %d: identical runs diverged", seed)
		}
	}
}

// TestSampleQueueDelayAdvances covers the other half of the split API: the
// in-run fault sampler must keep stepping the capacity process (it models a
// probe that is part of the simulated system), so SampleQueueDelay advances
// the OU state where queueDelay does not.
func TestSampleQueueDelayAdvances(t *testing.T) {
	s := sim.New(7)
	p := ProfileFor(0, 0)
	l := New(s, p, nil, nil, s.Stream("link"))
	s.RunUntil(100 * time.Millisecond)
	before := l.peekCapacity()
	_ = l.SampleQueueDelay()
	changedBySample := l.peekCapacity() != before

	mid := l.peekCapacity()
	for i := 0; i < 50; i++ {
		_ = l.queueDelay()
		_ = l.peekCapacity()
	}
	if l.peekCapacity() != mid {
		t.Fatal("pure observers advanced the capacity process")
	}
	if !changedBySample {
		t.Fatal("SampleQueueDelay left the capacity process untouched (OU step expected at a fresh timestamp)")
	}
}
