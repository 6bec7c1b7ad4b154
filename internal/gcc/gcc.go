// Package gcc implements send-side Google Congestion Control as described
// by Carlucci, De Cicco, Holmer and Mascolo, "Analysis and Design of the
// Google Congestion Control for Web Real-Time Communication" (MMSys '16) —
// the GCC variant the paper's pipeline uses, driven by transport-wide
// congestion control feedback.
//
// The controller combines a delay-based estimate (packet-group arrival
// filter → Kalman gradient estimator → adaptive-threshold over-use detector
// → AIMD remote-rate controller) with a loss-based controller; the target
// rate is the minimum of the two.
package gcc

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
	// UseTrendline selects the linear-regression trendline estimator
	// (modern WebRTC) instead of the Kalman filter of the paper-era GCC.
	UseTrendline bool
	// FeedbackTimeout arms the feedback-starvation watchdog: after this
	// long without TWCC the target freezes at cc.MinRate and probing stops;
	// when feedback returns the controller restarts from the floor under
	// exponential probe backoff. Zero disables the watchdog (the
	// pre-fault-injection behaviour: probe blindly through an outage).
	FeedbackTimeout time.Duration
}

const (
	// burstInterval groups packets sent within it into one arrival-filter
	// group.
	burstInterval = 5 * time.Millisecond
	// pacingFactor scales the target into the pacing rate. Near-target
	// pacing, as in the paper's pipeline: after a sharp target decrease,
	// already-encoded frames drain at the reduced rate and starve the
	// player (§4.2.1's FPS-dip mechanism).
	pacingFactor = 1.15
)

// group accumulates the packets of one send burst.
type group struct {
	firstSend   time.Duration
	lastSend    time.Duration
	lastArrival time.Duration
	valid       bool
}

// recvSample is one acked packet used for the incoming-rate estimate.
type recvSample struct {
	arrival time.Duration
	bytes   int
}

// recvWindow is the sliding 500 ms window of acked packets behind the
// receive-rate estimate R̂: samples join at the tail of a ring and leave at
// its head, so a report allocates nothing once the ring has grown to the
// window's peak. add only queues a sample, so the per-ack call stays one
// inlined ring push; rate adds the bytes of the samples queued since its
// last call to the running sum before it trims.
type recvWindow struct {
	samples ring.Queue[recvSample]
	bytes   int // byte sum over the first summed samples
	summed  int
}

func (w *recvWindow) add(arrival time.Duration, bytes int) {
	w.samples.Push(recvSample{arrival: arrival, bytes: bytes})
}

func (w *recvWindow) reset() {
	w.samples.Truncate(0)
	w.bytes, w.summed = 0, 0
}

// rate returns R̂ in bits/s over the trailing 500 ms of receiver time,
// trimming the window as a side effect.
func (w *recvWindow) rate(latestArrival time.Duration) float64 {
	const window = 500 * time.Millisecond
	for ; w.summed < w.samples.Len(); w.summed++ {
		w.bytes += w.samples.At(w.summed).bytes
	}
	cut := latestArrival - window
	for w.samples.Len() > 0 && w.samples.At(0).arrival < cut {
		w.bytes -= w.samples.Pop().bytes
	}
	w.summed = w.samples.Len()
	if w.summed < 2 {
		return 0
	}
	return float64(w.bytes*8) / window.Seconds()
}

// Controller implements cc.Controller with GCC.
type Controller struct {
	filter   kalman
	trend    trendline
	useTrend bool // cfg.UseTrendline: trend, not filter, estimates
	det      detector
	aimd     aimd
	loss     lossController

	prev, cur group

	recv recvWindow

	rtt    time.Duration
	target float64

	numDeltas  int
	lastSignal Signal

	// wd is the feedback-starvation watchdog; nil when disabled.
	wd *cc.Watchdog

	// repairSpend, when set, reports the repair layer's recent RTX rate
	// (bits/s), subtracted from the encoder target.
	repairSpend func(time.Duration) float64

	// trace emits one obs.KindCC event per feedback-driven rate decision
	// (nil = disabled; purely observational).
	trace *obs.Tracer
}

var (
	_ cc.Controller  = (*Controller)(nil)
	_ cc.Traceable   = (*Controller)(nil)
	_ cc.RepairAware = (*Controller)(nil)
)

// SetTracer implements cc.Traceable.
func (c *Controller) SetTracer(tr *obs.Tracer) { c.trace = tr }

// New returns a GCC controller.
func New(cfg Config) *Controller {
	c := new(Controller)
	c.Reset(cfg)
	return c
}

// Reset makes c the controller New(cfg) returns, on the receive-rate and
// trendline windows it grew, emptied.
func (c *Controller) Reset(cfg Config) {
	*c = Controller{
		filter:   newKalman(),
		trend:    c.trend,
		useTrend: cfg.UseTrendline,
		det:      newDetector(),
		aimd:     newAIMD(cc.MinRate, cc.MinRate, cc.MaxRate),
		loss:     newLossController(cc.MaxRate, cc.MinRate, cc.MaxRate),
		recv:     c.recv,
		target:   cc.MinRate,
		rtt:      100 * time.Millisecond,
	}
	c.trend.reset()
	c.recv.reset()
	if cfg.FeedbackTimeout > 0 {
		c.wd = cc.NewWatchdog(cfg.FeedbackTimeout)
	}
}

// Name implements cc.Controller.
func (c *Controller) Name() string { return "gcc" }

// OnPacketSent implements cc.Controller. GCC keys all state off feedback,
// which already carries the send times.
func (c *Controller) OnPacketSent(cc.SentPacket) {}

// TargetBitrate implements cc.Controller. A starved feedback path (link
// outage) freezes the target at the floor: probing blindly into a dead
// link only deepens the backlog the re-established radio must drain.
// Repair spend is subtracted (floored at cc.MinRate) so media plus RTX
// together honor the congested rate.
func (c *Controller) TargetBitrate(now time.Duration) float64 {
	if c.wd.Starved(now) {
		return cc.MinRate
	}
	return cc.RepairAdjust(c.target, c.repairSpend, now, cc.MinRate)
}

// SetRepairSpend implements cc.RepairAware.
func (c *Controller) SetRepairSpend(f func(time.Duration) float64) { c.repairSpend = f }

// PacingRate implements cc.Controller.
func (c *Controller) PacingRate(now time.Duration) float64 {
	return c.TargetBitrate(now) * pacingFactor
}

// CanSend implements cc.Controller: GCC is purely rate-based.
func (c *Controller) CanSend(time.Duration, int) bool { return true }

// OnFeedback implements cc.Controller: it ingests one TWCC report.
func (c *Controller) OnFeedback(now time.Duration, acks []cc.Ack) {
	if c.wd.OnFeedback(now) {
		// Feedback returned after a starvation episode: whatever the
		// estimators believed about the pre-outage path is stale. Restart
		// from the floor; the backoff clamp below holds it there.
		c.aimd.resetTo(cc.MinRate, now)
		c.loss.rate = cc.MinRate
		c.target = cc.MinRate
		c.prev, c.cur = group{}, group{}
		c.recv.reset()
	}
	if len(acks) == 0 {
		return
	}
	lost, total := 0, 0
	signal := SignalNormal
	sawMeasurement := false
	var latestArrival time.Duration

	for _, a := range acks {
		total++
		if !a.Received {
			lost++
			continue
		}
		// RTT proxy: feedback arrival minus packet departure.
		if s := now - a.SendTime; s > 0 {
			if c.rtt == 0 {
				c.rtt = s
			} else {
				c.rtt = (c.rtt*7 + s) / 8
			}
		}
		c.recv.add(a.ArrivalTime, a.Size)
		if a.ArrivalTime > latestArrival {
			latestArrival = a.ArrivalTime
		}
		if sig, ok := c.addToGroup(a); ok {
			sawMeasurement = true
			signal = worst(signal, sig)
		}
	}

	c.aimd.setRTT(c.rtt)
	recvRate := c.recv.rate(latestArrival)

	if sawMeasurement {
		c.lastSignal = signal
	} else {
		signal = c.lastSignal
	}
	delayRate := c.aimd.update(signal, recvRate, now)

	lossRate := c.loss.rate
	if total > 0 {
		lossRate = c.loss.update(float64(lost) / float64(total))
	}

	c.target = min(delayRate, lossRate)
	if c.target < cc.MinRate {
		c.target = cc.MinRate
	} else if c.target > cc.MaxRate {
		c.target = cc.MaxRate
	}

	if c.wd.InBackoff(now) {
		// Post-recovery probe hold: pin both estimators to the floor until
		// the backoff window ends, then ramp normally.
		c.aimd.resetTo(cc.MinRate, now)
		c.loss.rate = cc.MinRate
		c.target = cc.MinRate
	}
	if c.trace != nil {
		c.trace.Emit(obs.Event{T: now, Kind: obs.KindCC,
			Seq: int64(c.lastSignal), Aux: int64(len(acks)), V: c.target})
	}
}

// worst returns the more severe of two signals (overuse > underuse > normal).
func worst(a, b Signal) Signal {
	if a == SignalOveruse || b == SignalOveruse {
		return SignalOveruse
	}
	if a == SignalUnderuse || b == SignalUnderuse {
		return SignalUnderuse
	}
	return SignalNormal
}

// addToGroup feeds one received packet into the burst grouping. When the
// packet opens a new group, the completed previous pair yields one
// delay-variation measurement which is run through the filter and detector;
// the resulting signal is returned with ok=true.
func (c *Controller) addToGroup(a cc.Ack) (Signal, bool) {
	if !c.cur.valid {
		c.cur = group{firstSend: a.SendTime, lastSend: a.SendTime, lastArrival: a.ArrivalTime, valid: true}
		return 0, false
	}
	// Out-of-order w.r.t. the current group: ignore for grouping.
	if a.SendTime < c.cur.firstSend {
		return 0, false
	}
	if a.SendTime-c.cur.firstSend <= burstInterval {
		// Same burst.
		if a.SendTime > c.cur.lastSend {
			c.cur.lastSend = a.SendTime
		}
		if a.ArrivalTime > c.cur.lastArrival {
			c.cur.lastArrival = a.ArrivalTime
		}
		return 0, false
	}
	// New group: measure against the previous one.
	var sig Signal
	ok := false
	if c.prev.valid {
		dSend := c.cur.lastSend - c.prev.lastSend
		dArr := c.cur.lastArrival - c.prev.lastArrival
		d := float64(dArr-dSend) / float64(time.Millisecond)
		var m float64
		if c.useTrend {
			m = c.trend.update(d, float64(c.cur.lastArrival)/float64(time.Millisecond))
		} else {
			m = c.filter.update(d)
		}
		// The detector compares the accumulated offset, as in the
		// reference implementation: a small but persistent gradient must
		// eventually cross the threshold.
		c.numDeltas++
		scale := float64(min(c.numDeltas, 60))
		sig = c.det.update(m*scale, float64(c.cur.lastArrival)/float64(time.Millisecond))
		ok = true
	}
	c.prev = c.cur
	c.cur = group{firstSend: a.SendTime, lastSend: a.SendTime, lastArrival: a.ArrivalTime, valid: true}
	return sig, ok
}
