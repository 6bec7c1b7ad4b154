// Package fault provides deterministic fault injection for the emulated
// cellular paths: scripted coverage outages (the paper's §5 coverage holes
// at altitude), plus the knobs that arm the radio-link-failure machinery
// and the graceful-degradation responses across the stack. Everything here
// is a pure function of the configuration — scripted windows carry no
// randomness of their own, and RLF randomness draws from the run's named
// rng streams — so a seeded run with faults enabled is byte-identical at
// any campaign worker count.
package fault

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Direction selects which side(s) of the bidirectional path a scripted
// window silences. Media flows uplink (vehicle to operator); feedback
// (TWCC/CCFB/RTCP) flows downlink, so Downlink-only windows starve the
// congestion controllers without touching the media path.
type Direction int

// Directions.
const (
	Both Direction = iota
	Uplink
	Downlink
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Uplink:
		return "up"
	case Downlink:
		return "down"
	default:
		return "both"
	}
}

// Path scopes a scripted window to one bonded radio chain. The zero value
// (PathAll) is the physical coverage hole of the single-path campaigns: the
// vehicle is inside it, so every radio is silenced. PathPrimary and
// PathSecondary model operator-side failures — an RLF or outage on one
// operator's network while the other keeps serving — which is the failure
// mode dual-operator bonding exists to survive.
const (
	PathAll       = 0
	PathPrimary   = 1
	PathSecondary = 2
)

// Window is one scripted fault episode on the link(s) in Dir over
// [Start, Start+Duration). With Loss false it is a coverage outage:
// service is interrupted, packets queue behind the interruption and the
// stale-backlog flush applies at resumption. With Loss true it is a deep
// fade: the radio keeps transmitting but every packet in the window is
// erased in flight — the §4.3 loss burst, the regime selective
// retransmission exists for — and none of the outage machinery (service
// interruption, watchdog starvation, stale flush) engages.
type Window struct {
	Start    time.Duration
	Duration time.Duration
	Dir      Direction
	Loss     bool
	// Path scopes the window to one bonded radio chain (PathPrimary or
	// PathSecondary); PathAll silences every chain.
	Path int
}

// End returns the instant service resumes.
func (w Window) End() time.Duration { return w.Start + w.Duration }

// ParseSchedule parses a comma-separated scripted fault schedule. Each
// element is start+duration (a coverage outage) or start~duration (a deep
// fade erasing packets in flight), with optional direction and path-scope
// suffixes:
//
//	"45s+2s"                 both directions dark for 2 s at t=45 s
//	"45s+2s,90s+500ms/down"  plus a feedback-only blackout at t=90 s
//	"20s~60ms"               a 60 ms loss fade at t=20 s
//	"45s+2s@p1"              an operator-side blackout of the primary
//	                         bonded path only (the secondary keeps serving)
//
// Direction suffixes are /up, /down and /both (the default); path-scope
// suffixes are @p1 and @p2 (default: every path). The suffixes compose in
// either order ("45s+2s/up@p1" ≡ "45s+2s@p1/up").
func ParseSchedule(spec string) ([]Window, error) {
	var out []Window
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		w := Window{Dir: Both}
		var haveDir, havePath bool
		for {
			i := strings.LastIndexAny(field, "/@")
			if i < 0 {
				break
			}
			tok := field[i+1:]
			switch field[i] {
			case '/':
				if haveDir {
					return nil, fmt.Errorf("fault: repeated direction suffix in %q", field)
				}
				haveDir = true
				switch tok {
				case "up":
					w.Dir = Uplink
				case "down":
					w.Dir = Downlink
				case "both":
					w.Dir = Both
				default:
					return nil, fmt.Errorf("fault: bad direction %q in %q (want up, down or both)", tok, field)
				}
			case '@':
				if havePath {
					return nil, fmt.Errorf("fault: repeated path scope in %q", field)
				}
				havePath = true
				switch tok {
				case "p1":
					w.Path = PathPrimary
				case "p2":
					w.Path = PathSecondary
				default:
					return nil, fmt.Errorf("fault: bad path scope %q in %q (want p1 or p2)", tok, field)
				}
			}
			field = field[:i]
		}
		start, dur, ok := strings.Cut(field, "+")
		if !ok {
			if start, dur, ok = strings.Cut(field, "~"); ok {
				w.Loss = true
			}
		}
		if !ok {
			return nil, fmt.Errorf("fault: bad window %q (want start+duration for an outage or start~duration for a loss fade, e.g. 45s+2s or 20s~60ms)", field)
		}
		var err error
		if w.Start, err = time.ParseDuration(start); err != nil {
			return nil, fmt.Errorf("fault: bad start in %q: %v", field, err)
		}
		if w.Duration, err = time.ParseDuration(dur); err != nil {
			return nil, fmt.Errorf("fault: bad duration in %q: %v", field, err)
		}
		if w.Start < 0 || w.Duration <= 0 {
			return nil, fmt.Errorf("fault: window %q must have start ≥ 0 and duration > 0", field)
		}
		if w.End() < 0 {
			return nil, fmt.Errorf("fault: window %q ends beyond the representable time", field)
		}
		out = append(out, w)
	}
	if out == nil && strings.TrimSpace(spec) != "" {
		// A non-empty spec made only of separators ("," or " , ") is a
		// typo, not an empty schedule — arming faults with it would
		// silently run fault-free.
		return nil, fmt.Errorf("fault: schedule %q contains no windows", spec)
	}
	return out, nil
}

// Config arms the fault layer. The zero value disables everything; the
// graceful-degradation flags (Watchdog, KeyframeRecovery, the re-
// establishment queue policy) only take effect when Enabled.
type Config struct {
	// Windows are scripted outages (coverage holes); they apply on top of
	// any RLF-driven interruptions.
	Windows []Window
	// RLF enables the radio-link-failure model in the cell machine:
	// Qout/Qin thresholds with T310/T311 timers and HET-outlier handover
	// failures, each producing a multi-second re-establishment blackout.
	RLF bool
	// Watchdog enables the controllers' feedback-starvation watchdog:
	// after WatchdogTimeout without feedback the rate freezes to the floor
	// and probing stops; recovery re-probes under exponential backoff.
	Watchdog bool
	// WatchdogTimeout overrides the starvation threshold (750 ms when
	// zero — ≈15 TWCC intervals).
	WatchdogTimeout time.Duration
	// KeyframeRecovery enables the player's post-outage keyframe request
	// and the decode-error-propagation SSIM model (§5 error concealment).
	KeyframeRecovery bool
	// FreezeQueue keeps queued packets across an interruption instead of
	// the default drop-stale-at-re-establishment behaviour.
	FreezeQueue bool
	// StaleAfter is the queue age dropped when service resumes (600 ms
	// when zero; ignored under FreezeQueue).
	StaleAfter time.Duration
}

// Enabled reports whether any fault source is armed.
func (c Config) Enabled() bool { return len(c.Windows) > 0 || c.RLF }

// span is one merged half-open outage interval.
type span struct{ from, to time.Duration }

// Line is one link direction's view of a scripted schedule: the sorted,
// merged outage windows that silence that direction, plus the loss-fade
// windows that erase its packets in flight.
type Line struct {
	spans []span // outages (service interrupted)
	loss  []span // fades (packets erased, service up)
}

// mergeSpans sorts and coalesces overlapping intervals.
func mergeSpans(spans []span) []span {
	if len(spans) == 0 {
		return nil
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].from < spans[j].from })
	merged := spans[:1]
	for _, s := range spans[1:] {
		last := &merged[len(merged)-1]
		if s.from <= last.to {
			if s.to > last.to {
				last.to = s.to
			}
			continue
		}
		merged = append(merged, s)
	}
	return merged
}

// NewPathLine filters the windows that apply to dir on one bonded radio
// chain, sorts and merges them: PathAll windows silence every chain,
// path-scoped windows only their own, and passing PathAll as path includes
// every window. It returns nil when none apply, which Blocked and Lossy
// treat as never blocked and never lossy.
func NewPathLine(ws []Window, dir Direction, path int) *Line {
	var outages, fades []span
	for _, w := range ws {
		if w.Duration <= 0 {
			continue
		}
		if w.Dir != Both && w.Dir != dir {
			continue
		}
		if w.Path != PathAll && path != PathAll && w.Path != path {
			continue
		}
		if w.Loss {
			fades = append(fades, span{from: w.Start, to: w.End()})
		} else {
			outages = append(outages, span{from: w.Start, to: w.End()})
		}
	}
	if len(outages) == 0 && len(fades) == 0 {
		return nil
	}
	return &Line{spans: mergeSpans(outages), loss: mergeSpans(fades)}
}

// Blocked reports whether the line is silenced at now, and until when.
func (l *Line) Blocked(now time.Duration) (until time.Duration, blocked bool) {
	if l == nil {
		return 0, false
	}
	for _, s := range l.spans {
		if now < s.from {
			return 0, false
		}
		if now < s.to {
			return s.to, true
		}
	}
	return 0, false
}

// Lossy reports whether the line is inside a loss fade at now: service is
// up but every packet transmitted is erased.
func (l *Line) Lossy(now time.Duration) bool {
	if l == nil {
		return false
	}
	for _, s := range l.loss {
		if now < s.from {
			return false
		}
		if now < s.to {
			return true
		}
	}
	return false
}

// Kind classifies a fault episode.
type Kind int

// Episode kinds.
const (
	// KindScripted is a configured outage window.
	KindScripted Kind = iota
	// KindRLF is a radio-link failure (T310 expiry on serving RSRP).
	KindRLF
	// KindHandoverFailure is a botched handover that forced RRC
	// re-establishment.
	KindHandoverFailure
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRLF:
		return "rlf"
	case KindHandoverFailure:
		return "ho-failure"
	default:
		return "scripted"
	}
}

// Episode is one realized outage in a run's timeline.
type Episode struct {
	Start, End time.Duration
	Kind       Kind
}

// Length returns the episode duration.
func (e Episode) Length() time.Duration { return e.End - e.Start }
