package repair

import (
	"time"

	"rpivideo/internal/metrics"
	"rpivideo/internal/obs"
	"rpivideo/internal/ring"
)

// loss is one missing media sequence number under repair, held by value in
// its table slot.
type loss struct {
	// retries counts NACKs sent for this loss so far.
	retries int
	// arrivalsAtMiss snapshots the detector's arrival counter at creation;
	// the loss becomes NACK-eligible once reorderTolerance further packets
	// have arrived.
	arrivalsAtMiss int
	// missedAt is when the gap was first observed.
	missedAt time.Duration
	// nextNackAt gates the next NACK (first: missedAt+nackDelay, then the
	// backed-off retry timer).
	nextNackAt time.Duration
	// lastNackAt timestamps the most recent NACK, for RTT sampling.
	lastNackAt time.Duration
}

// lossRef is a loss's place in NACK order. The pair names one record for
// good: a sequence number can only be opened again by a later OnPacket
// call, whose arrival count differs. A ref whose pair no longer matches its
// slot is a husk.
type lossRef struct {
	arrivalsAtMiss int
	seq            uint16
}

// Detector is the receiver-side loss detector and NACK scheduler. It is
// driven entirely by the caller: OnPacket/OnRepair at packet arrivals and
// Tick at the NACK cadence. It never schedules simulator events itself.
//
// Losses live by value in a ring.SeqTable, as the Cache's entries do. The
// order queue keeps NACK-eligibility order — ascending (wrapping) seq, the
// order gaps are opened in — and every tick passes it once, head to tail,
// keeping the refs of open losses, so once warm a loss costs no allocation.
type Detector struct {
	// maxPending is the bound on tracked losses (the constant maxPending;
	// a test may lower it).
	maxPending int

	started     bool
	highest     uint16 // highest sequence number seen (mod 2^16 order)
	arrivals    int
	lastArrival time.Duration

	slots ring.SeqTable[loss]
	order ring.Queue[lossRef]

	srtt    time.Duration
	haveRTT bool

	trace *obs.Tracer

	// rttHist, when non-nil, records each retransmission heal's realized
	// loss-to-repair time in milliseconds (see SetNackRTTHist).
	rttHist *metrics.Sketch

	// Late counts losses healed by the original arriving after its gap was
	// noticed, and Abandoned those given up on (retry cap or pending
	// bound) — the PLI path's responsibility from then on. Retransmission
	// heals are OnRepair's true answers.
	Late      int
	Abandoned int
}

// detectorInitSlots covers a loss burst of a few hundred packets; an
// outage's span doubles the table a few times, once.
const detectorInitSlots = 1 << 8

// NewDetector returns a detector. Its parameters are the package's
// constants; the Config is not read.
func NewDetector(Config) *Detector {
	return &Detector{
		maxPending: maxPending,
		slots:      ring.MakeSeqTable[loss](detectorInitSlots),
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

// named returns the live loss r names, or nil when r is a husk.
func (d *Detector) named(r lossRef) *loss {
	if e := d.slots.Get(r.seq); e != nil && e.arrivalsAtMiss == r.arrivalsAtMiss {
		return e
	}
	return nil
}

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
		if e, ok := d.slots.Delete(seq); ok {
			d.heal(seq, e, at, false)
		}
	}
}

// OnRepair records a retransmission arrival for the given original sequence
// number. It reports whether the repair filled a tracked gap; false means
// the RTX is spurious (the original already arrived, or the loss was
// abandoned) and the caller should discard it.
func (d *Detector) OnRepair(seq uint16, at time.Duration) bool {
	e, ok := d.slots.Delete(seq)
	if !ok {
		return false
	}
	if e.retries > 0 {
		d.sampleRTT(at - e.lastNackAt)
	}
	d.heal(seq, e, at, true)
	return true
}

// Tick runs the NACK scheduler into a new slice; see AppendTick.
func (d *Detector) Tick(now time.Duration) []uint16 { return d.AppendTick(nil, now) }

// AppendTick runs the NACK scheduler: it appends the sequence numbers to
// NACK now to out (ascending wrapping order, ready for
// rtp.AppendNackPairs) and abandons losses whose final retry timer expired
// unanswered.
func (d *Detector) AppendTick(out []uint16, now time.Duration) []uint16 {
	// Each ref leaves the head and, while its loss stays open, rejoins at
	// the tail: after one pass the queue holds the open losses in order.
	for n := d.order.Len(); n > 0; n-- {
		r := d.order.Pop()
		e := d.named(r)
		if e == nil {
			continue // healed or abandoned since
		}
		if d.arrivals-e.arrivalsAtMiss >= reorderTolerance && now >= e.nextNackAt {
			if e.retries >= maxRetries {
				d.abandon(r.seq, now)
				continue
			}
			e.retries++
			e.lastNackAt = now
			e.nextNackAt = now + d.rto(e.retries)
			out = append(out, r.seq)
		}
		d.order.Push(r)
	}
	return out
}

// add opens a pending loss, abandoning the oldest if the bound is hit.
func (d *Detector) add(seq uint16, at time.Duration) {
	if d.slots.Get(seq) != nil {
		return
	}
	for d.slots.Len() >= d.maxPending && d.order.Len() > 0 {
		if r := d.order.Pop(); d.named(r) != nil {
			d.abandon(r.seq, at)
		}
	}
	// The packet revealing the gap is itself the first arrival past the
	// missing one, so it counts toward the reorder tolerance.
	d.slots.Put(seq, loss{arrivalsAtMiss: d.arrivals - 1, missedAt: at, nextNackAt: at + nackDelay})
	d.order.Push(lossRef{arrivalsAtMiss: d.arrivals - 1, seq: seq})
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

// heal counts seq's loss e, just deleted, as healed.
func (d *Detector) heal(seq uint16, e loss, at time.Duration, rtx bool) {
	aux := int64(0)
	if rtx {
		aux = 1
		if d.rttHist != nil {
			d.rttHist.Add(float64(at-e.missedAt) / float64(time.Millisecond))
		}
	} else {
		d.Late++
	}
	if d.trace != nil {
		d.trace.Emit(obs.Event{T: at, Kind: obs.KindRepairOK, Seq: int64(seq),
			Aux: aux, V: float64(at-e.missedAt) / float64(time.Millisecond)})
	}
}

// abandon gives up seq's loss.
func (d *Detector) abandon(seq uint16, at time.Duration) {
	e, _ := d.slots.Delete(seq)
	d.Abandoned++
	if d.trace != nil {
		d.trace.Emit(obs.Event{T: at, Kind: obs.KindRepairAbandoned,
			Seq: int64(seq), Aux: int64(e.retries)})
	}
}
