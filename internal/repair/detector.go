package repair

import (
	"time"

	"rpivideo/internal/metrics"
	"rpivideo/internal/obs"
)

// pendingLoss is one missing media sequence number under repair.
type pendingLoss struct {
	seq uint16
	// missedAt is when the gap was first observed.
	missedAt time.Duration
	// arrivalsAtMiss snapshots the detector's arrival counter at creation;
	// the loss becomes NACK-eligible once reorderTolerance further packets
	// have arrived.
	arrivalsAtMiss int
	// retries counts NACKs sent for this loss so far.
	retries int
	// nextNackAt gates the next NACK (first: missedAt+nackDelay, then the
	// backed-off retry timer).
	nextNackAt time.Duration
	// lastNackAt timestamps the most recent NACK, for RTT sampling.
	lastNackAt time.Duration
	done       bool
}

// Detector is the receiver-side loss detector and NACK scheduler. It is
// driven entirely by the caller: OnPacket/OnRepair at packet arrivals and
// Tick at the NACK cadence. It never schedules simulator events itself.
type Detector struct {
	// maxPending is the bound on tracked losses (the constant maxPending;
	// a test may lower it).
	maxPending int

	started     bool
	highest     uint16 // highest sequence number seen (mod 2^16 order)
	arrivals    int
	lastArrival time.Duration

	pending []*pendingLoss // NACK-eligibility order: ascending (wrapping) seq
	index   map[uint16]*pendingLoss

	srtt    time.Duration
	haveRTT bool

	trace *obs.Tracer

	// rttHist, when non-nil, records each retransmission heal's realized
	// loss-to-repair time in milliseconds (see SetNackRTTHist).
	rttHist *metrics.Sketch

	// Repaired counts losses healed by a retransmission, Late those healed
	// by the original arriving after its gap was noticed, and Abandoned
	// those given up on (retry cap or pending bound) — the PLI path's
	// responsibility from then on.
	Repaired  int
	Late      int
	Abandoned int
}

// NewDetector returns a detector. Its parameters are the package's
// constants; the Config is not read.
func NewDetector(Config) *Detector {
	return &Detector{
		maxPending: maxPending,
		index:      make(map[uint16]*pendingLoss),
		srtt:       initialRTT,
	}
}

// SetTracer attaches an event tracer (nil disables tracing).
func (d *Detector) SetTracer(tr *obs.Tracer) { d.trace = tr }

// SetNackRTTHist attaches a histogram that records each retransmission
// heal's loss-to-repair time in milliseconds (the realized NACK RTT). Nil
// disables recording. Late original arrivals are not recorded — they say
// nothing about the repair path.
func (d *Detector) SetNackRTTHist(h *metrics.Sketch) { d.rttHist = h }

// RTT returns the smoothed NACK→repair round-trip estimate.
func (d *Detector) RTT() time.Duration { return d.srtt }

// Pending returns the number of losses currently tracked.
func (d *Detector) Pending() int { return len(d.index) }

// OnPacket records an in-stream media packet arrival. A forward jump opens
// pending losses for the skipped sequence numbers; an arrival that fills a
// tracked gap heals it (a late, reordered original).
func (d *Detector) OnPacket(seq uint16, at time.Duration) {
	d.arrivals++
	silence := at - d.lastArrival
	d.lastArrival = at
	if !d.started {
		d.started = true
		d.highest = seq
		return
	}
	delta := seq - d.highest
	switch {
	case delta == 0:
		// Duplicate of the newest packet; nothing to learn.
	case delta < 0x8000:
		first, n := d.highest+1, int(delta)-1
		// Skipped sequence numbers that are not worth a record go to the
		// PLI path at once, oldest first. Dead span: the gap was revealed
		// across an arrival silence longer than the useful repair window,
		// so the missing packets predate the outage and their frames are
		// past playout — all n of them, instead of NACK-chasing them on the
		// recovering link. Otherwise whatever exceeds maxPending: add would
		// open each record only to evict it again, up to 2^15 − 1 of them
		// for one (possibly forged) packet.
		dead := max(0, n-d.maxPending)
		if n > 0 && silence > outageGuard {
			dead = n
		}
		if dead > 0 {
			d.Abandoned += dead
			if d.trace != nil {
				// One summary event for the span (Aux = span length), not
				// one per sequence number.
				d.trace.Emit(obs.Event{T: at, Kind: obs.KindRepairAbandoned,
					Seq: int64(first), Aux: int64(dead)})
			}
		}
		for s := first + uint16(dead); s != seq; s++ {
			d.add(s, at)
		}
		d.highest = seq
	default:
		// Reordered (old) packet: heal its gap if we were tracking one.
		if e := d.index[seq]; e != nil {
			d.heal(e, at, false)
		}
	}
}

// OnRepair records a retransmission arrival for the given original sequence
// number. It reports whether the repair filled a tracked gap; false means
// the RTX is spurious (the original already arrived, or the loss was
// abandoned) and the caller should discard it.
func (d *Detector) OnRepair(seq uint16, at time.Duration) bool {
	e := d.index[seq]
	if e == nil {
		return false
	}
	if e.retries > 0 {
		d.sampleRTT(at - e.lastNackAt)
	}
	d.heal(e, at, true)
	return true
}

// Tick runs the NACK scheduler into a new slice; see AppendTick.
func (d *Detector) Tick(now time.Duration) []uint16 { return d.AppendTick(nil, now) }

// AppendTick runs the NACK scheduler: it appends the sequence numbers to
// NACK now to out (ascending wrapping order, ready for
// rtp.AppendNackPairs) and abandons losses whose final retry timer expired
// unanswered.
func (d *Detector) AppendTick(out []uint16, now time.Duration) []uint16 {
	keep := d.pending[:0]
	for _, e := range d.pending {
		if e.done {
			continue
		}
		if d.arrivals-e.arrivalsAtMiss < reorderTolerance || now < e.nextNackAt {
			keep = append(keep, e)
			continue
		}
		if e.retries >= maxRetries {
			d.abandon(e, now)
			continue
		}
		e.retries++
		e.lastNackAt = now
		e.nextNackAt = now + d.rto(e.retries)
		out = append(out, e.seq)
		keep = append(keep, e)
	}
	for i := len(keep); i < len(d.pending); i++ {
		d.pending[i] = nil
	}
	d.pending = keep
	return out
}

// add opens a pending loss, abandoning the oldest if the bound is hit.
func (d *Detector) add(seq uint16, at time.Duration) {
	if _, ok := d.index[seq]; ok {
		return
	}
	for len(d.index) >= d.maxPending && len(d.pending) > 0 {
		if e := d.pending[0]; !e.done {
			d.abandon(e, at)
		}
		d.pending[0] = nil
		d.pending = d.pending[1:]
	}
	e := &pendingLoss{
		seq:      seq,
		missedAt: at,
		// The packet revealing the gap is itself the first arrival past
		// the missing one, so it counts toward the reorder tolerance.
		arrivalsAtMiss: d.arrivals - 1,
		nextNackAt:     at + nackDelay,
	}
	d.pending = append(d.pending, e)
	d.index[seq] = e
}

// rto returns the wait after the k-th NACK (k ≥ 1): the smoothed RTT
// scaled by retryRTTFactor and doubled per further retry, floored at
// minRTO.
func (d *Detector) rto(k int) time.Duration {
	base := time.Duration(float64(d.srtt) * retryRTTFactor)
	if base < minRTO {
		base = minRTO
	}
	return base << (k - 1)
}

func (d *Detector) sampleRTT(s time.Duration) {
	if s < 0 {
		return
	}
	if !d.haveRTT {
		d.srtt = s
		d.haveRTT = true
		return
	}
	d.srtt += (s - d.srtt) / 8
}

func (d *Detector) heal(e *pendingLoss, at time.Duration, rtx bool) {
	e.done = true
	delete(d.index, e.seq)
	aux := int64(0)
	if rtx {
		aux = 1
		d.Repaired++
		if d.rttHist != nil {
			d.rttHist.Add(float64(at-e.missedAt) / float64(time.Millisecond))
		}
	} else {
		d.Late++
	}
	if d.trace != nil {
		d.trace.Emit(obs.Event{T: at, Kind: obs.KindRepairOK, Seq: int64(e.seq),
			Aux: aux, V: float64(at-e.missedAt) / float64(time.Millisecond)})
	}
}

func (d *Detector) abandon(e *pendingLoss, at time.Duration) {
	e.done = true
	delete(d.index, e.seq)
	d.Abandoned++
	if d.trace != nil {
		d.trace.Emit(obs.Event{T: at, Kind: obs.KindRepairAbandoned,
			Seq: int64(e.seq), Aux: int64(e.retries)})
	}
}
