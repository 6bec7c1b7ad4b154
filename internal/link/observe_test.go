package link

import (
	"fmt"
	"testing"
	"time"

	"rpivideo/internal/sim"
)

// runObserved drives a fluctuating link with deterministic traffic and
// returns a transcript of every delivery. A non-nil observe is called every
// millisecond mid-run.
func runObserved(seed int64, observe func(l *Link)) string {
	s := sim.New(seed)
	p := ProfileFor(0, 0) // urban P1: OU capacity fluctuation, jitter, PER
	l := New(s, p, nil, nil, s.Stream("link"))
	got := collect(l)
	for i := 0; i < 400; i++ {
		i := i
		s.At(time.Duration(i)*5*time.Millisecond, func() { l.Send(i, 1200) })
	}
	if observe != nil {
		s.Every(0, time.Millisecond, func() { observe(l) })
	}
	s.RunUntil(3 * time.Second)
	out := ""
	for _, a := range *got {
		out += fmt.Sprintf("%d %d %d\n", a.meta.(int), a.owd, a.at)
	}
	return out
}

// TestObserversDoNotPerturbRun: the link's read-only observers must not
// perturb the transcript by a single nanosecond, or a dashboard probe would
// change experiment results. (Capacity observers once advanced the
// Ornstein–Uhlenbeck capacity process, drawing RNG, so merely looking at a
// link mid-run changed where packets landed.)
func TestObserversDoNotPerturbRun(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		plain := runObserved(seed, nil)
		watched := runObserved(seed, func(l *Link) {
			_ = l.QueueBytes()
			_ = l.Interrupted(l.sim.Now())
			_ = l.Count(Media)
		})
		if plain != watched {
			t.Fatalf("seed %d: observing the link mid-run changed the delivery transcript", seed)
		}
		if plain != runObserved(seed, nil) {
			t.Fatalf("seed %d: identical runs diverged", seed)
		}
	}
}

// TestSampleQueueDelayAdvances covers the other half: the in-run fault
// sampler must keep stepping the capacity process (it models a probe that
// is part of the simulated system), so sampling SampleQueueDelay mid-run
// moves the capacity realization and with it the transcript.
func TestSampleQueueDelayAdvances(t *testing.T) {
	plain := runObserved(7, nil)
	if sampled := runObserved(7, func(l *Link) { _ = l.SampleQueueDelay() }); sampled == plain {
		t.Fatal("SampleQueueDelay left the capacity process untouched (OU steps expected at fresh timestamps)")
	}
}
