package core

import (
	"sort"
	"time"

	"rpivideo/internal/bond"
	"rpivideo/internal/cell"
	"rpivideo/internal/endpoint"
	"rpivideo/internal/fault"
	"rpivideo/internal/flight"
	"rpivideo/internal/link"
	"rpivideo/internal/scream"
)

// flightLog is a video run's per-packet accounting: what Result reports
// about the media path that neither endpoint knows — one-way delay (the
// receiver never learns a send time), the altitude it was sent from,
// goodput per second and which path's copies were suppressed.
type flightLog struct {
	res *Result
	// above are the altitude band edges of BucketFor as step functions of
	// the send time: a packet's band is the number of edges it was above.
	above [len(altBandEdges)]flight.Step
	// goodputBytes is indexed by arrival second (RunUntil guarantees
	// at ≤ dur), not a map: the packet path pays an add, not a hash. With
	// bonding, only the first copy of each packet counts; the duplicate is
	// discarded at the receiver.
	goodputBytes []int
	suppressed   [bond.NumPaths]int64
}

func newFlightLog(res *Result, prof flight.Profile, dur time.Duration) *flightLog {
	l := &flightLog{res: res, goodputBytes: make([]int, int(dur/time.Second)+1)}
	for i, edge := range altBandEdges {
		l.above[i] = flight.Above(prof, edge)
	}
	return l
}

// bucketAt is BucketFor(profile.At(t).Alt) without the interpolation.
func (l *flightLog) bucketAt(t time.Duration) AltBucket {
	b := Alt0to20
	for i := range l.above {
		if !l.above[i].At(t) {
			break
		}
		b++
	}
	return b
}

// delivered accounts one media-path delivery by the receiver's verdict.
// Delay metrics stay at first-arrival time, whatever the reorder buffer
// does with the packet afterwards.
func (l *flightLog) delivered(v endpoint.Verdict, path, size int, sentAt, at time.Duration) {
	switch v {
	case endpoint.Duplicate:
		l.suppressed[path]++
		return
	case endpoint.Fresh:
		ms := float64(at-sentAt) / float64(time.Millisecond)
		record(&l.res.OWDms, ms)
		record(&l.res.OWDByAlt[l.bucketAt(sentAt)], ms)
	case endpoint.Repaired:
		// Goodput only: a retransmission's delay is not the path's.
	default:
		return
	}
	if sec := int(at / time.Second); sec >= 0 && sec < len(l.goodputBytes) {
		l.goodputBytes[sec] += size
	}
}

// fold closes the per-second goodput bins.
func (l *flightLog) fold() {
	for _, bytes := range l.goodputBytes[:len(l.goodputBytes)-1] {
		record(&l.res.Goodput, float64(bytes*8)/1e6)
	}
}

// recoveryTrack follows one outage episode until the target is back.
type recoveryTrack struct {
	ep        fault.Episode
	preRate   float64
	recovered bool
}

// targetSampler watches the sender's target rate every 100 ms: ramp-up
// detection and — with faults armed — the per-episode
// recovery and post-outage queue metrics. Everything fault-related is gated
// on faultsOn: SampleQueueDelay advances the link's capacity process, so
// touching it here would perturb the calibrated no-fault runs.
type targetSampler struct {
	res      *Result
	uplink   *link.Link
	dur      time.Duration
	faultsOn bool

	episodes   []fault.Episode
	tracks     []*recoveryTrack
	scripted   []fault.Episode
	scriptIdx  int
	lastTarget float64
}

func newTargetSampler(cfg Config, res *Result, uplink *link.Link, dur time.Duration) *targetSampler {
	t := &targetSampler{res: res, uplink: uplink, dur: dur, faultsOn: cfg.Faults.Enabled(), episodes: res.FaultEpisodes}
	if !t.faultsOn {
		return t
	}
	for _, w := range cfg.Faults.Windows {
		if w.Start >= dur || w.Loss || w.Path == fault.PathSecondary {
			// Loss fades erase packets without interrupting service, so
			// they are not outage episodes and need no recovery tracking.
			// Secondary-path windows stay off the episode timeline too: it
			// is primary-centric, and a bonded run's whole point is that
			// the stream does not treat a standby outage as its own.
			continue
		}
		end := w.End()
		if end > dur {
			end = dur
		}
		t.scripted = append(t.scripted, fault.Episode{Start: w.Start, End: end, Kind: fault.KindScripted})
	}
	t.episodes = append(t.episodes, t.scripted...)
	return t
}

// rlf takes a radio-link failure the primary chain's radio plays, at the
// step that declares it, into the counts, the episode timeline and the
// recovery tracking. Only a run with faults armed declares one.
func (t *targetSampler) rlf(ev cell.RLFEvent) {
	kind := fault.KindRLF
	if ev.Cause == cell.RLFHandoverFailure {
		kind = fault.KindHandoverFailure
		t.res.HandoverFailures++
	} else {
		t.res.RLFs++
	}
	ep := fault.Episode{Start: ev.At, End: min(ev.At+ev.Outage, t.dur), Kind: kind}
	t.episodes = append(t.episodes, ep)
	t.tracks = append(t.tracks, &recoveryTrack{ep: ep, preRate: t.lastTarget})
}

// sample takes one reading of the target rate.
func (t *targetSampler) sample(now time.Duration, target float64) {
	res := t.res
	if res.RampUpTo25 == 0 && target >= 24.75e6 {
		res.RampUpTo25 = now
	}
	if !t.faultsOn {
		return
	}
	if t.lastTarget == 0 {
		t.lastTarget = target
	}
	for t.scriptIdx < len(t.scripted) && now >= t.scripted[t.scriptIdx].Start {
		t.tracks = append(t.tracks, &recoveryTrack{ep: t.scripted[t.scriptIdx], preRate: t.lastTarget})
		t.scriptIdx++
	}
	var queueMs float64
	queueSampled := false
	for _, tr := range t.tracks {
		if now < tr.ep.End {
			continue
		}
		if now-tr.ep.End <= 5*time.Second {
			if !queueSampled {
				queueSampled = true
				// The advancing variant: this probe is part of the
				// simulated system, and sampling here has always stepped
				// the capacity process — switching to a pure peek
				// would change every fault campaign's realization (and
				// golden trace).
				queueMs = float64(t.uplink.SampleQueueDelay()) / float64(time.Millisecond)
			}
			if queueMs > res.PostOutageQueueMs {
				res.PostOutageQueueMs = queueMs
			}
		}
		if !tr.recovered && target >= 0.8*tr.preRate {
			tr.recovered = true
			record(&res.RecoveryMs, float64(now-tr.ep.End)/float64(time.Millisecond))
		}
	}
	t.lastTarget = target
}

// fold closes the fault-episode timeline.
func (t *targetSampler) fold() {
	res := t.res
	if !t.faultsOn {
		return
	}
	sort.Slice(t.episodes, func(i, j int) bool {
		if t.episodes[i].Start != t.episodes[j].Start {
			return t.episodes[i].Start < t.episodes[j].Start
		}
		return t.episodes[i].Kind < t.episodes[j].Kind
	})
	res.FaultEpisodes = t.episodes
	res.Outages = len(t.episodes)
	for _, ep := range t.episodes {
		res.OutageTotal += ep.Length()
		record(&res.OutageMs, float64(ep.Length())/float64(time.Millisecond))
	}
}

// foldEndpoints copies what the two endpoints, the bond manager and the
// repair path counted into the result.
func foldEndpoints(cfg Config, res *Result, snd *endpoint.Sender, rcv *endpoint.Receiver, bp *bondPaths, log *flightLog, dur time.Duration) {
	// The player has stopped: PlaybackMs, SSIM and Stalls, which it filled
	// in place (stream), are final.
	pl := rcv.Player
	pl.AddFPS(&res.FPS, dur)
	res.Stalls = pl.Stalls
	res.StallsPerMin = pl.StallsPerMinute(dur)
	res.FramesPlayed = pl.FramesPlayed
	res.FramesSkipped = pl.FramesSkipped
	if sc, ok := snd.Ctrl.(*scream.Controller); ok {
		res.ScreamLosses = sc.Losses
		res.ScreamLossesInBand = sc.LossesInBand
		res.ScreamLossesWindow = sc.LossesWindow
		res.ScreamDiscards = sc.QueueDiscards
	}
	if bp != nil {
		res.BondSwitches = bp.mgr.Switches
		if reorder := rcv.Reorder; reorder != nil {
			res.BondReorderLate = int(reorder.Late)
			res.BondReorderForced = int(reorder.DeadlineReleases + reorder.CapReleases)
		}
		// Per-path accounting from the manager; MultipathDuplicates stays
		// as the derived compat view (total copies suppressed at the
		// receiver, the old field's meaning exactly).
		for i := 0; i < bond.NumPaths; i++ {
			st := bp.mgr.Stats(i, dur)
			res.BondPaths = append(res.BondPaths, BondPathStats{
				Sent:       st.Sent,
				Delivered:  st.Delivered,
				Lost:       st.Lost,
				Suppressed: log.suppressed[i],
				DownMs:     float64(st.DownFor) / float64(time.Millisecond),
				Up:         st.Up,
			})
			res.MultipathDuplicates += int(log.suppressed[i])
		}
	}
	if cfg.Faults.Enabled() {
		res.KeyframeRequests = pl.KeyframeRequests
	}
	if cfg.Repair.Enabled {
		det := rcv.Detector
		res.NacksSent = rcv.NacksSent
		res.RtxBytes = snd.RtxBytes
		res.PacketsRepaired = pl.PacketsRepaired
		res.FramesRepaired = pl.FramesRepaired
		res.RepairLate = det.Late
		res.RepairAbandoned = det.Abandoned
		res.RepairDenied = snd.Budget.Denied
		res.RepairCacheMisses = snd.Cache.Misses
		res.RepairBudgetAccrued = snd.Budget.Accrued()
	}
}
