package cc

import (
	"testing"
	"time"
)

func TestWatchdogNilSafe(t *testing.T) {
	var w *Watchdog
	if w.Starved(time.Second) {
		t.Error("nil watchdog starved")
	}
	if w.OnFeedback(time.Second) {
		t.Error("nil watchdog recovered")
	}
	if w.InBackoff(time.Second) {
		t.Error("nil watchdog in backoff")
	}
}

func TestWatchdogNotStarvedBeforeFirstFeedback(t *testing.T) {
	w := NewWatchdog(750 * time.Millisecond)
	if w.Starved(time.Hour) {
		t.Error("starved before any feedback — startup must be governed by slow start, not the watchdog")
	}
}

func TestWatchdogStarvationAndRecovery(t *testing.T) {
	w := NewWatchdog(750 * time.Millisecond)
	w.OnFeedback(0)
	if w.Starved(700 * time.Millisecond) {
		t.Error("starved within the timeout")
	}
	if !w.Starved(800 * time.Millisecond) {
		t.Error("not starved past the timeout")
	}
	if w.episodes != 1 {
		t.Errorf("episodes = %d, want 1", w.episodes)
	}
	// Staying starved is not a new episode.
	w.Starved(2 * time.Second)
	if w.episodes != 1 {
		t.Errorf("episodes = %d after repeated queries, want 1", w.episodes)
	}
	if !w.OnFeedback(3 * time.Second) {
		t.Error("feedback after starvation did not report recovery")
	}
	if w.Starved(3 * time.Second) {
		t.Error("still starved after recovery")
	}
	// First recovery: 500 ms hold.
	if !w.InBackoff(3*time.Second + 400*time.Millisecond) {
		t.Error("not in backoff right after recovery")
	}
	if w.InBackoff(3*time.Second + 600*time.Millisecond) {
		t.Error("still in backoff past the first 500 ms hold")
	}
}

func TestWatchdogExponentialBackoff(t *testing.T) {
	w := NewWatchdog(750 * time.Millisecond)
	now := time.Duration(0)
	w.OnFeedback(now)
	wantHolds := []time.Duration{
		500 * time.Millisecond, time.Second, 2 * time.Second, 4 * time.Second,
		8 * time.Second, 8 * time.Second, // capped
	}
	for i, want := range wantHolds {
		now += 2 * time.Second // starve (>750 ms silence)
		if !w.Starved(now) {
			t.Fatalf("episode %d: not starved", i)
		}
		if !w.OnFeedback(now) {
			t.Fatalf("episode %d: no recovery", i)
		}
		if !w.InBackoff(now + want - time.Millisecond) {
			t.Errorf("episode %d: hold shorter than %v", i, want)
		}
		if w.InBackoff(now + want) {
			t.Errorf("episode %d: hold longer than %v", i, want)
		}
	}
}

func TestWatchdogHealthyReset(t *testing.T) {
	w := NewWatchdog(750 * time.Millisecond)
	w.OnFeedback(0)
	w.Starved(time.Second)
	w.OnFeedback(2 * time.Second) // episode 1 over
	// 40 s of healthy feedback (> the 30 s reset window).
	for now := 2 * time.Second; now < 42*time.Second; now += 100 * time.Millisecond {
		w.OnFeedback(now)
	}
	w.Starved(43 * time.Second)
	if !w.OnFeedback(44 * time.Second) {
		t.Fatal("no recovery")
	}
	// Episode count was reset, so the hold is back to the 500 ms base.
	if w.InBackoff(44*time.Second + 600*time.Millisecond) {
		t.Error("hold not reset to base after a sustained healthy period")
	}
}

// TestWatchdogStarvationLatchedByFeedback: a starvation that elapsed
// entirely between two feedback arrivals (no Starved query in between)
// still counts as an episode and yields a recovery.
func TestWatchdogStarvationLatchedByFeedback(t *testing.T) {
	w := NewWatchdog(750 * time.Millisecond)
	w.OnFeedback(0)
	if !w.OnFeedback(5 * time.Second) {
		t.Error("silent 5 s gap not latched as a starvation episode")
	}
	if w.episodes != 1 {
		t.Errorf("episodes = %d, want 1", w.episodes)
	}
}
