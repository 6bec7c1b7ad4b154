// Package scream implements Self-Clocked Rate Adaptation for Multimedia
// (Johansson, "Self-Clocked Rate Adaptation for Conversational Video in
// LTE", and RFC 8298), the second congestion controller the paper evaluates.
//
// SCReAM is window-based: a LEDBAT-style congestion window reacts to the
// estimated queuing delay, bytes in flight are limited to the window
// (self-clocking), and the media target rate follows the window while also
// reacting to the RTP send-queue delay. The send queue is discarded when it
// grows older than its age limit — the behaviour the paper observes causing
// large jumps of the highest received RTP sequence number (§4.2.1).
//
// Feedback arrives as RFC 8888 reports. Packets that fall out of the
// feedback ack window without ever being acknowledged are declared lost —
// with the Ericsson library's 64-packet window this manufactures spurious
// losses above ≈7 Mbps, the defect the paper diagnoses; a 256-packet window
// largely avoids it.
package scream

import (
	"time"

	"rpivideo/internal/cc"
	"rpivideo/internal/obs"
	"rpivideo/internal/ring"
)

// Config parameterizes the controller. The rate range is the paper's
// encoder range (cc.MinRate to cc.MaxRate), and the controller starts at
// its floor.
type Config struct {
	// FeedbackTimeout arms the feedback-starvation watchdog: after this
	// long without CCFB the target freezes at cc.MinRate and sending stops
	// (the self-clock has no acks anyway); when feedback returns the
	// controller restarts the window from the floor under exponential
	// probe backoff, without counting the blackout as window losses. Zero
	// disables the watchdog.
	FeedbackTimeout time.Duration
}

const (
	// qDelayTarget is the queuing-delay setpoint (§4.2.1).
	qDelayTarget = 60 * time.Millisecond
	// rampUpSpeed limits additive rate increase in bits/s per second. With
	// the rate-scaled and fast-increase widening in adjustRate it ramps to
	// 25 Mbps in 11.1 s (tbl-rampup at three runs; the paper reports
	// ≈25 s): EXPERIMENTS.md deviation 6, ROADMAP item 19.
	rampUpSpeed = 1e6
	// queueDiscardAge is the RTP send-queue age beyond which the queue is
	// discarded (§4.2.1).
	queueDiscardAge = 100 * time.Millisecond
	// queueGrowthLimit is the send-queue delay above which the congestion
	// window stops growing, per the paper's description.
	queueGrowthLimit = 300 * time.Millisecond
	// mss is the maximum segment size in bytes.
	mss = 1200
)

// gain constants (RFC 8298 §4.1.2 flavour).
const (
	gainUp       = 1.0
	lossBeta     = 0.9
	queueBeta    = 0.9  // target scale on send-queue pressure
	lossRateBeta = 0.95 // target scale on loss events (cwnd does the real work)
	pacingHead   = 1.25 // pacing headroom over the target
	// rateHeadroom keeps the media target below what the window sustains,
	// so transient capacity dips land in the congestion window rather than
	// the RTP queue (whose discard drops whole frames).
	rateHeadroom = 0.85
)

// inflightPkt is the sender-side record of an unacknowledged packet.
type inflightPkt struct {
	size     int
	sendTime time.Duration
}

// inflightInitSlots covers the in-flight span of a 25 Mbps stream of
// 1200-byte packets across ≈400 ms of round trip and queue.
const inflightInitSlots = 1 << 10

// owdSample is one one-way-delay observation.
type owdSample struct {
	at  time.Duration
	owd time.Duration
}

// baseWindowLen is the span of the windowed base-delay minimum.
const baseWindowLen = 10 * time.Second

// baseDelay is the minimum one-way delay over the last baseWindowLen as an
// ascending-minima deque: q holds, oldest first, exactly the samples that no
// later sample undercuts or ties, so the window minimum is its head and each
// sample is pushed and popped once — undercut samples leave at the tail,
// expired ones at the head.
type baseDelay struct {
	q ring.Queue[owdSample]
}

// update folds in the sample (now, owd) and returns the window minimum.
func (b *baseDelay) update(now, owd time.Duration) time.Duration {
	n := b.q.Len()
	for n > 0 && b.q.At(n-1).owd >= owd {
		n--
	}
	b.q.Truncate(n)
	b.q.Push(owdSample{at: now, owd: owd})
	// The sample just pushed has age zero, so the head stops at it at the
	// latest.
	for now-b.q.At(0).at > baseWindowLen {
		b.q.Pop()
	}
	return b.q.At(0).owd
}

func (b *baseDelay) reset() { b.q.Truncate(0) }

// Controller implements cc.Controller with SCReAM.
type Controller struct {
	cwnd          float64 // bytes
	bytesInFlight int
	// inflight holds the unacknowledged packets by sequence number. No
	// record precedes oldest in serial-number order, which turns
	// "everything below begin_seq is lost" into a walk of that cursor —
	// each sent packet is stepped over once — instead of a scan of the
	// whole set per report.
	inflight ring.SeqTable[inflightPkt]
	oldest   uint16

	// One-way-delay tracking. The raw OWD includes the unknown clock
	// offset; the queuing delay is its excess over the windowed minimum.
	base   baseDelay
	qdelay time.Duration // EWMA of the queuing delay

	srtt time.Duration

	target         float64
	lastRateAdjust time.Duration
	lastLossAt     time.Duration

	queue *cc.SendQueue

	// Counters exposed for experiments and traces.
	Losses        int // packets declared lost (includes spurious ones)
	LossesInBand  int // losses detected inside a report (hole below highest)
	LossesWindow  int // losses from packets falling below the ack window
	QueueDiscards int // queue-discard events

	// wd is the feedback-starvation watchdog; nil when disabled.
	wd *cc.Watchdog

	// repairSpend, when set, reports the repair layer's recent RTX rate
	// (bits/s), subtracted from the encoder target.
	repairSpend func(time.Duration) float64

	// trace emits one obs.KindCC event per feedback-driven rate decision
	// (nil = disabled; purely observational).
	trace *obs.Tracer
}

var _ cc.Controller = (*Controller)(nil)
var _ cc.Traceable = (*Controller)(nil)
var _ cc.RepairAware = (*Controller)(nil)

// SetTracer implements cc.Traceable.
func (c *Controller) SetTracer(tr *obs.Tracer) { c.trace = tr }

// New returns a SCReAM controller.
func New(cfg Config) *Controller {
	c := new(Controller)
	c.Reset(cfg)
	return c
}

// Reset makes c the controller New(cfg) returns, on the in-flight table
// and base-delay deque it grew, emptied.
func (c *Controller) Reset(cfg Config) {
	inflight := c.inflight
	if inflight.Cap() == 0 {
		inflight = ring.MakeSeqTable[inflightPkt](inflightInitSlots)
	}
	srtt := 100 * time.Millisecond
	*c = Controller{
		inflight: inflight,
		base:     c.base,
		srtt:     srtt,
		target:   cc.MinRate,
	}
	c.inflight.Clear()
	c.base.reset()
	// Initial window sized so the initial rate is sendable at the assumed
	// RTT.
	c.cwnd = cc.MinRate / 8 * srtt.Seconds()
	if c.cwnd < float64(2*mss) {
		c.cwnd = float64(2 * mss)
	}
	if cfg.FeedbackTimeout > 0 {
		c.wd = cc.NewWatchdog(cfg.FeedbackTimeout)
	}
}

// SetQueue attaches the RTP send queue the controller steers on and
// discards (§4.2.1). The sender wiring calls it once, on the controller
// itself: a wrapper such as cc.Bonded does not pass it through.
func (c *Controller) SetQueue(q *cc.SendQueue) { c.queue = q }

// TargetBitrate implements cc.Controller. A starved feedback path (link
// outage) freezes the target at the floor until feedback returns. Repair
// spend is subtracted (floored at cc.MinRate): the RTX stream is invisible to
// the in-flight window, so the encoder budget is where it is accounted.
func (c *Controller) TargetBitrate(now time.Duration) float64 {
	if c.wd.Starved(now) {
		return cc.MinRate
	}
	return cc.RepairAdjust(c.target, c.repairSpend, now, cc.MinRate)
}

// SetRepairSpend implements cc.RepairAware.
func (c *Controller) SetRepairSpend(f func(time.Duration) float64) { c.repairSpend = f }

// PacingRate implements cc.Controller: the window per RTT, with headroom,
// but never slower than the target (so a freshly grown queue can drain) and
// never beyond 1.5× the rate ceiling (an inflated RTT estimate after an
// outage must not turn the pacer into a firehose).
func (c *Controller) PacingRate(time.Duration) float64 {
	cwndRate := c.cwnd * 8 / c.boundedSRTT().Seconds()
	r := c.target
	if cwndRate > r {
		r = cwndRate
	}
	r *= pacingHead
	if max := 1.5 * cc.MaxRate; r > max {
		r = max
	}
	return r
}

// boundedSRTT caps the smoothed RTT used for window/rate conversions:
// outage-inflated samples otherwise balloon the window far beyond what the
// feedback ack range covers, manufacturing spurious losses.
func (c *Controller) boundedSRTT() time.Duration {
	if c.srtt > 200*time.Millisecond {
		return 200 * time.Millisecond
	}
	return c.srtt
}

// CanSend implements cc.Controller: self-clocking against the window. A
// 25 % margin lets encoder bursts (I-frames) flow into the network's deep
// buffer instead of ageing out of the RTP queue. A starved feedback path
// stops sending outright: with no acks coming back, everything sent would
// only pile into the dead link's buffer.
func (c *Controller) CanSend(now time.Duration, size int) bool {
	if c.wd.Starved(now) {
		return false
	}
	return float64(c.bytesInFlight+size) <= 1.25*c.cwnd
}

// OnPacketSent implements cc.Controller.
func (c *Controller) OnPacketSent(p cc.SentPacket) {
	if c.inflight.Len() == 0 || seqLess(p.Seq, c.oldest) {
		c.oldest = p.Seq
	}
	c.inflight.Put(p.Seq, inflightPkt{size: p.Size, sendTime: p.SendTime})
	c.bytesInFlight += p.Size
}

// seqLess reports whether a precedes b in serial-number order.
func seqLess(a, b uint16) bool { return a != b && b-a < 0x8000 }

// updateOWD folds one (send, arrival) pair into the base/queuing delay
// estimators. The sample itself is in the base window, so the queuing
// delay is never negative.
func (c *Controller) updateOWD(now time.Duration, sendTime, arrival time.Duration) {
	owd := arrival - sendTime
	q := owd - c.base.update(now, owd)
	// EWMA with 1/8 gain.
	c.qdelay = (c.qdelay*7 + q) / 8
}

// OnFeedback implements cc.Controller: it ingests one RFC 8888 report,
// translated by the transport into acks over the report's sequence range
// (acks[0].Seq is the report's begin_seq), repeats possibly left out as the
// cc.Controller contract allows: a repeat finds no in-flight record in the
// first loop and is not a hole in the second.
func (c *Controller) OnFeedback(now time.Duration, acks []cc.Ack) {
	if c.wd.OnFeedback(now) {
		// Feedback returned after an outage. The blackout consumed whatever
		// was in flight — the stale backlog was flushed at re-establishment,
		// not dropped by congestion — so restart the self-clock from the
		// floor without counting it as window losses.
		c.inflight.Clear()
		c.bytesInFlight = 0
		c.cwnd = cc.MinRate / 8 * c.boundedSRTT().Seconds()
		if c.cwnd < float64(2*mss) {
			c.cwnd = float64(2 * mss)
		}
		c.target = cc.MinRate
		c.qdelay = 0
		c.base.reset()
		c.lastLossAt = now
		c.lastRateAdjust = now
	}
	if len(acks) == 0 {
		return
	}
	bytesAcked := 0
	lossDetected := false
	var highestAcked uint16
	haveHighest := false

	for _, a := range acks {
		if !a.Received {
			continue
		}
		if !haveHighest || seqLess(highestAcked, a.Seq) {
			highestAcked = a.Seq
			haveHighest = true
		}
		pkt, ok := c.inflight.Delete(a.Seq)
		if !ok {
			continue // already acked in an earlier overlapping report
		}
		c.bytesInFlight -= pkt.size
		bytesAcked += pkt.size
		// RTT sample: feedback arrival minus packet departure.
		if s := now - pkt.sendTime; s > 0 {
			c.srtt = (c.srtt*7 + s) / 8
		}
		c.updateOWD(now, pkt.sendTime, a.ArrivalTime)
	}

	// Loss detection 1: a packet inside the report marked not-received
	// while a clearly later one was received. The margin tolerates the
	// mild reordering cellular links produce.
	const reorderMargin = 8
	if haveHighest {
		for _, a := range acks {
			if a.Received || !seqLess(a.Seq+reorderMargin, highestAcked) {
				continue
			}
			// The age guard keeps jitter-displaced packets (which arrive
			// moments later) from being declared lost: a packet must be
			// well past the feedback round trip before a hole below the
			// highest ack means anything.
			lossAge := c.srtt*3/2 + 20*time.Millisecond
			if pkt := c.inflight.Get(a.Seq); pkt != nil && now-pkt.sendTime > lossAge {
				c.bytesInFlight -= pkt.size
				c.inflight.Delete(a.Seq)
				c.Losses++
				c.LossesInBand++
				lossDetected = true
			}
		}
	}

	// Loss detection 2: packets older than the report's begin_seq can never
	// be acknowledged again — the ack-window defect manufactures losses
	// here at high rates.
	begin := acks[0].Seq
	for ; c.inflight.Len() > 0 && seqLess(c.oldest, begin); c.oldest++ {
		if pkt, ok := c.inflight.Delete(c.oldest); ok {
			c.bytesInFlight -= pkt.size
			c.Losses++
			c.LossesWindow++
			lossDetected = true
		}
	}
	if c.bytesInFlight < 0 {
		c.bytesInFlight = 0
	}

	lossReacted := c.updateCWND(now, bytesAcked, lossDetected)
	c.adjustRate(now, lossReacted)
	if c.wd.InBackoff(now) {
		// Post-recovery probe hold: keep the target at the floor until the
		// backoff window ends, then ramp normally.
		c.target = cc.MinRate
	}
	c.manageQueue(now)
	if c.trace != nil {
		// The span, not len(acks): the transport may leave repeats out.
		span := int64(acks[len(acks)-1].Seq-acks[0].Seq) + 1
		c.trace.Emit(obs.Event{T: now, Kind: obs.KindCC,
			Seq: int64(c.cwnd), Aux: span, V: c.target})
	}
}

// updateCWND applies the LEDBAT-style window update and reports whether a
// loss event was acted upon (at most once per RTT).
func (c *Controller) updateCWND(now time.Duration, bytesAcked int, lossDetected bool) bool {
	lossReacted := false
	if lossDetected {
		// At most one multiplicative decrease per RTT.
		if now-c.lastLossAt > c.srtt {
			c.cwnd *= lossBeta
			c.lastLossAt = now
			lossReacted = true
		}
	} else if c.qdelay > 5*qDelayTarget/2 {
		// Sustained queuing-delay overshoot is treated as a congestion
		// event (RFC 8298 §4.1.2.1): a multiplicative cut, at most once
		// per RTT, so the window tracks deep capacity dips fast enough
		// that the RTP queue does not age out.
		if now-c.lastLossAt > c.srtt {
			c.cwnd *= 0.9
			c.lastLossAt = now
		}
	} else if bytesAcked > 0 {
		offTarget := float64(qDelayTarget-c.qdelay) / float64(qDelayTarget)
		if offTarget > 1 {
			offTarget = 1
		} else if offTarget < -1 {
			offTarget = -1
		}
		// The paper: the window grows only while the RTP queue is shorter
		// than the growth limit.
		queueOK := c.queue == nil || c.queue.Delay(now) < queueGrowthLimit
		if offTarget > 0 && queueOK {
			c.cwnd += gainUp * offTarget * float64(bytesAcked) * float64(mss) / c.cwnd
		} else if offTarget < 0 {
			c.cwnd += 2 * gainUp * offTarget * float64(bytesAcked) * float64(mss) / c.cwnd
		}
	}
	// Clamps: never below two segments, never far beyond what the max rate
	// requires at the current RTT.
	if c.cwnd < float64(2*mss) {
		c.cwnd = float64(2 * mss)
	}
	maxCwnd := cc.MaxRate / 8 * c.boundedSRTT().Seconds() * 2
	if c.cwnd > maxCwnd {
		c.cwnd = maxCwnd
	}
	return lossReacted
}

// adjustRate moves the media target toward what the window sustains.
func (c *Controller) adjustRate(now time.Duration, lossDetected bool) {
	const interval = 200 * time.Millisecond
	if lossDetected {
		c.target *= lossRateBeta
		c.clampTarget()
		c.lastRateAdjust = now
		return
	}
	if now-c.lastRateAdjust < interval {
		return
	}
	dt := (now - c.lastRateAdjust).Seconds()
	if dt > 1 {
		dt = 1
	}
	c.lastRateAdjust = now

	cwndRate := c.cwnd * 8 / c.boundedSRTT().Seconds() * rateHeadroom
	queueDelay := time.Duration(0)
	if c.queue != nil {
		queueDelay = c.queue.Delay(now)
	}
	switch {
	case queueDelay > queueDiscardAge/2:
		// The window cannot push the media out: scale the rate down.
		c.target *= queueBeta
	case c.target < cwndRate:
		// Headroom: ramp up, limited by the configured speed. The limit
		// scales with the rate so recovery from a dip at high rates does
		// not take the whole flight, and widens further when the window
		// clearly sustains more (SCReAM's fast-increase mode).
		ramp := rampUpSpeed * dt
		if scaled := c.target / 10e6 * rampUpSpeed * dt; scaled > ramp {
			ramp = scaled
		}
		if c.target < 0.7*cwndRate {
			ramp *= 4
		}
		c.target += ramp
		if c.target > cwndRate {
			c.target = cwndRate
		}
	default:
		// The window does not sustain the target: follow it down gently.
		c.target = 0.9*c.target + 0.1*cwndRate
	}
	c.clampTarget()
}

func (c *Controller) clampTarget() {
	if c.target < cc.MinRate {
		c.target = cc.MinRate
	} else if c.target > cc.MaxRate {
		c.target = cc.MaxRate
	}
}

// manageQueue enforces the RTP queue age limit: when the head-of-queue age
// exceeds queueDiscardAge, the whole queue is discarded (SCReAM's
// quick-recovery behaviour, §4.2.1) and the target is pulled down.
func (c *Controller) manageQueue(now time.Duration) {
	if c.queue == nil {
		return
	}
	if c.queue.Delay(now) > queueDiscardAge {
		c.queue.Clear()
		c.QueueDiscards++
		c.target *= queueBeta
		c.clampTarget()
	}
}
