package cc

import "time"

// Watchdog detects feedback starvation for a congestion controller: when
// no feedback (TWCC, CCFB, RTCP) has arrived for Timeout, the path is
// presumed dead and the controller should freeze its rate at the floor and
// stop probing — blind probing into an outage only deepens the bottleneck
// backlog the re-established link must drain. When feedback returns the
// watchdog reports a recovery and opens an exponential-backoff window
// during which the controller holds the floor before probing again; the
// window doubles with consecutive starvation episodes (a flapping link
// earns longer holds) and resets after a sustained healthy period.
//
// All methods are nil-receiver safe: a nil *Watchdog is never starved and
// never in backoff, so controllers embed it unconditionally and only
// construct it when the fault layer arms graceful degradation.
type Watchdog struct {
	// Timeout is the feedback silence that declares starvation.
	Timeout time.Duration

	haveFB       bool
	lastFB       time.Duration
	starved      bool
	episodes     int
	lastStarve   time.Duration
	backoffUntil time.Duration
}

// Backoff timing, the same for every watchdog.
const (
	// backoffBase is the first post-recovery hold; backoffMax caps the
	// doubling.
	backoffBase = 500 * time.Millisecond
	backoffMax  = 8 * time.Second
	// healthyReset forgets past episodes after this much time without a
	// new starvation.
	healthyReset = 30 * time.Second
)

// NewWatchdog returns a watchdog with the given starvation timeout.
func NewWatchdog(timeout time.Duration) *Watchdog {
	return &Watchdog{Timeout: timeout}
}

// Starved reports whether the feedback path is starved at now. The first
// transition into starvation is latched here, so callers should consult it
// on every rate query.
func (w *Watchdog) Starved(now time.Duration) bool {
	if w == nil || !w.haveFB {
		// Before the first feedback there is nothing to starve: startup is
		// governed by the controller's own slow start, not the watchdog.
		return false
	}
	if !w.starved && now-w.lastFB > w.Timeout {
		w.starved = true
		if w.episodes > 0 && now-w.lastStarve > healthyReset {
			w.episodes = 0
		}
		w.episodes++
		w.lastStarve = now
	}
	return w.starved
}

// OnFeedback records a feedback arrival at now and reports whether it ends
// a starvation episode. On recovery the backoff window opens:
// backoffBase·2^(episodes−1), capped at backoffMax.
func (w *Watchdog) OnFeedback(now time.Duration) (recovered bool) {
	if w == nil {
		return false
	}
	w.Starved(now) // latch a starvation that elapsed since the last feedback
	w.haveFB = true
	w.lastFB = now
	if !w.starved {
		return false
	}
	w.starved = false
	hold := backoffBase << uint(min(w.episodes-1, 10))
	w.backoffUntil = now + min(hold, backoffMax)
	return true
}

// InBackoff reports whether the post-recovery probe hold is active at now.
func (w *Watchdog) InBackoff(now time.Duration) bool {
	return w != nil && now < w.backoffUntil
}
