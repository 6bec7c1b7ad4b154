// Package link emulates the cellular access link of the measurement
// campaign: a time-varying-capacity bottleneck with a deep (bufferbloated)
// queue, residual burst loss, handover service interruptions, and the
// pre/post-handover capacity degradations that produce the paper's latency
// spikes (§4.2.2). It replaces the live LTE uplink per the substitution
// rule in DESIGN.md.
package link

import (
	"math"
	"math/rand"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
	"rpivideo/internal/flight"
	"rpivideo/internal/metrics"
	"rpivideo/internal/obs"
	"rpivideo/internal/ring"
	"rpivideo/internal/sim"
)

// DropReason explains why the link dropped a packet.
type DropReason int

// Drop reasons.
const (
	// DropLoss is a radio loss (residual after HARQ).
	DropLoss DropReason = iota
	// DropOverflow is a bottleneck buffer tail drop.
	DropOverflow
	// DropAQM is a CoDel head drop by the active queue manager.
	DropAQM
	// DropStale is a queued packet flushed at re-establishment after an
	// outage: RRC re-establishment discards the stale RLC/PDCP backlog
	// rather than replaying dead video.
	DropStale
	// numDropReasons sizes Counts.Dropped.
	numDropReasons
)

// String implements fmt.Stringer.
func (r DropReason) String() string {
	switch r {
	case DropLoss:
		return "loss"
	case DropAQM:
		return "aqm"
	case DropStale:
		return "stale"
	default:
		return "overflow"
	}
}

// Class separates the three kinds of traffic sharing the bearer: media,
// control (RTCP) and RTX (RFC 4588 retransmissions). RTX rides the media
// bottleneck — it competes for the same buffer bytes and suffers the same
// loss, AQM, stale-flush and in-order delivery — but keeps its own ledger so
// media-only statistics (the paper's §4.1 PER) stay clean.
type Class uint8

// Traffic classes.
const (
	// Media is the video stream (Send).
	Media Class = iota
	// Control is RTCP sharing the media bearer (SendControl).
	Control
	// RTX is retransmitted media (SendRTX).
	RTX
	numClasses
)

// flags returns the trace flag bits for the class.
func (c Class) flags() uint8 {
	switch c {
	case Control:
		return obs.FlagCtrl
	case RTX:
		return obs.FlagRTX
	default:
		return 0
	}
}

// Counts is one class's ledger. Every packet offered is counted in Sent and
// then, at any instant, is in exactly one of Delivered, a Dropped reason,
// the bottleneck queue or the propagation stage.
type Counts struct {
	Sent, Delivered int
	Dropped         [numDropReasons]int
}

// Drops returns the packets dropped for any reason.
func (c Counts) Drops() int {
	n := 0
	for _, d := range c.Dropped {
		n += d
	}
	return n
}

// Link is one emulated direction of the access link.
type Link struct {
	sim  *sim.Simulator
	prof Profile
	rng  *rand.Rand

	// machine supplies handover interruptions and radio degradation; nil
	// for a static (no-mobility) link.
	machine *cell.Machine
	// shareFn, when non-nil, returns the fleet scheduler's capacity share
	// for this UE at a given time (1 = sole tenancy of the serving cell).
	// It multiplies into every capacity read, advancing and peeking alike.
	shareFn func(time.Duration) float64
	// faults is this direction's scripted outage line; nil means none.
	faults *fault.Line
	// flushStale drops queued packets older than staleAfter when an
	// interruption ends; pendingFlush remembers that an interruption was
	// observed so the flush runs exactly once at resume.
	flushStale   bool
	staleAfter   time.Duration
	pendingFlush bool
	// lastArrival enforces RLC in-order delivery: per-packet jitter never
	// reorders arrivals within the bearer.
	lastArrival time.Duration
	// lossAbove and stallAbove report whether the vehicle is above the
	// profile's AltLossAbove and AltOutlierAbove at an instant; the zero
	// Step is never above (threshold disabled, or no mobility: ground
	// level).
	lossAbove, stallAbove flight.Step

	// Deliver is invoked when a packet exits the link. Must be set before
	// the first Send.
	Deliver func(meta any, size int, sentAt, deliveredAt time.Duration)
	// OnDrop, if set, is invoked when the link drops a packet of any
	// class c.
	OnDrop func(meta any, size int, sentAt time.Duration, c Class, reason DropReason)

	// Capacity fluctuation (Ornstein–Uhlenbeck around MeanCapacity).
	capDev  float64 // relative deviation
	capLast time.Duration
	capInit bool

	// Bottleneck queue (ring buffer: the hot path never reslices or
	// reallocates in steady state).
	queue      ring.Queue[queued]
	queueBytes int
	serving    bool

	// inflight holds packets that finished serialization and await their
	// arrival; arrivals holds, in step with it, when each arrives. Arrivals
	// are clamped monotonic per link (RLC in-order delivery), so both are
	// strictly FIFO and only the head needs a simulator event: arrive pops
	// it and arms the next one under the sequence number deliver reserved,
	// which is the order one timer per packet would fire in.
	inflight ring.Queue[queued]
	arrivals ring.Queue[arrivalSlot]

	// Preallocated event callbacks: scheduling a method value through
	// sim.At allocates a closure per call, so the three packet-path
	// callbacks are materialized once per link.
	serveFn  func() // l.serveNext
	servedFn func() // head finished serialization
	arriveFn func() // head of inflight arrives

	// outlierMean caches the profile-derived mean stall spacing so the
	// resample path does no float division.
	outlierMean time.Duration

	// Burst-loss (Gilbert) state.
	inBurst bool

	// nextOutlierIn is the remaining at-altitude exposure until the next
	// HARQ stall (exponentially distributed); negative means unsampled.
	nextOutlierIn time.Duration
	lastOutlierAt time.Duration

	// CoDel state (when the profile enables AQM).
	codelFirstAbove time.Duration // when the sojourn first exceeded target (+interval)
	codelDropNext   time.Duration
	codelDropping   bool
	codelCount      int

	// ledger is each class's Counts. A packet leaves the link only through
	// land or drop, so the packets a ledger has not closed are exactly
	// those in queue and inflight.
	ledger [numClasses]Counts

	// ctrlQueueBytes tracks queued control bytes separately from the media
	// queueBytes so control packets do not occupy media buffer space in
	// the overflow admission check.
	ctrlQueueBytes int

	// Tracing (nil trace = disabled; the emit sites are nil-guarded so the
	// packet path costs one predictable branch and zero allocations when
	// tracing is off). Tracing is strictly observational: it never draws
	// randomness or schedules events, so traced and untraced runs produce
	// identical results.
	trace       *obs.Tracer
	traceDir    obs.Dir
	nextID      int64
	inOutage    bool
	outageStart time.Duration

	// queueHist, when non-nil, records each served packet's queueing delay
	// (enqueue to end of serialization) in milliseconds. Like tracing it is
	// strictly observational: one nil-check branch on the service path and
	// no allocation.
	queueHist *metrics.Sketch
}

type queued struct {
	meta   any
	size   int
	sentAt time.Duration
	class  Class
	id     int64
}

// arrivalSlot is when an in-flight packet reaches the far end: its time and
// the simulator sequence number reserved for it when it left the bottleneck.
type arrivalSlot struct {
	at  time.Duration
	seq uint64
}

// New returns a link on the given simulator. machine and state may be nil;
// state supplies the vehicle state for the altitude effects. A caller that
// holds the flight.Profile passes nil here and calls SetFlight, which answers
// the same comparisons without interpolating the trajectory per packet.
func New(s *sim.Simulator, prof Profile, machine *cell.Machine, state func(time.Duration) flight.State, rng *rand.Rand) *Link {
	l := new(Link)
	l.Reset(s, prof, machine, state, rng)
	return l
}

// Reset makes l the link New builds from the same arguments, on the rings
// it grew, emptied. Whatever l held or was set to is gone: hooks, faults,
// tracer, capacity share. The link must be finished: its packets are
// dropped unannounced.
func (l *Link) Reset(s *sim.Simulator, prof Profile, machine *cell.Machine, state func(time.Duration) flight.State, rng *rand.Rand) {
	// The packet-path callbacks are method values bound to l, which never
	// moves: the ones an earlier Reset made serve as they are.
	serveFn, servedFn, arriveFn := l.serveFn, l.servedFn, l.arriveFn
	if serveFn == nil {
		serveFn, servedFn, arriveFn = l.serveNext, l.served, l.arrive
	}
	*l = Link{sim: s, prof: prof, rng: rng, machine: machine, serveFn: serveFn, servedFn: servedFn, arriveFn: arriveFn,
		queue: l.queue, inflight: l.inflight, arrivals: l.arrivals}
	l.queue.Truncate(0)
	l.inflight.Truncate(0)
	l.arrivals.Truncate(0)
	if prof.AltOutlierRate > 0 {
		l.outlierMean = time.Duration(float64(time.Second) / prof.AltOutlierRate)
	}
	if state != nil {
		l.SetFlight(stateProfile(state))
	}
}

// stateProfile is a bare state lookup as a flight.Profile; flight.Above
// answers it by evaluating the lookup.
type stateProfile func(time.Duration) flight.State

func (f stateProfile) At(t time.Duration) flight.State { return f(t) }
func (stateProfile) Duration() time.Duration           { return 0 }

// SetFlight takes the altitude effects from the vehicle's profile: each
// threshold the link profile enables becomes a flight.Above step.
func (l *Link) SetFlight(p flight.Profile) {
	if l.prof.AltLossAbove > 0 {
		l.lossAbove = flight.Above(p, l.prof.AltLossAbove)
	}
	if l.prof.AltOutlierAbove > 0 && l.prof.AltOutlierRate > 0 {
		l.stallAbove = flight.Above(p, l.prof.AltOutlierAbove)
	}
}

// SetFaults attaches a scripted outage line (may be nil) and the
// re-establishment queue policy: when flush is true, packets that queued
// more than staleAfter ago are dropped the moment service resumes after
// any interruption — scripted, RLF or handover. staleAfter ≤ 0 selects
// 600 ms.
func (l *Link) SetFaults(line *fault.Line, flush bool, staleAfter time.Duration) {
	l.faults = line
	l.flushStale = flush
	if staleAfter <= 0 {
		staleAfter = 600 * time.Millisecond
	}
	l.staleAfter = staleAfter
}

// SetTracer attaches an event tracer to this link direction. A nil tracer
// disables tracing. dir labels every event this link emits (up, down, up2).
func (l *Link) SetTracer(tr *obs.Tracer, dir obs.Dir) {
	l.trace = tr
	l.traceDir = dir
}

// SetQueueDelayHist attaches a histogram that records each served packet's
// queueing delay in milliseconds. Nil disables recording.
func (l *Link) SetQueueDelayHist(h *metrics.Sketch) { l.queueHist = h }

// capacity advances the OU fluctuation to now and returns the raw capacity.
func (l *Link) capacity(now time.Duration) float64 {
	if !l.capInit {
		l.capInit = true
		l.capLast = now
		l.capDev = l.rng.NormFloat64() * l.prof.CapSigma
	}
	dt := (now - l.capLast).Seconds()
	if dt > 0 {
		l.capLast = now
		tau := l.prof.CapTau.Seconds()
		if tau <= 0 {
			tau = 1
		}
		rate := dt / tau
		if rate > 1 {
			rate = 1
		}
		l.capDev += -l.capDev*rate + l.prof.CapSigma*math.Sqrt(2*rate)*l.rng.NormFloat64()
	}
	c := l.prof.MeanCapacity * (1 + l.capDev)
	if c < l.prof.MinCapacity {
		c = l.prof.MinCapacity
	}
	return c
}

// SetCapacityShare installs a fleet capacity-share lookup: effective
// capacity is multiplied by fn(now) ∈ (0, 1], the fraction of the serving
// cell's PRBs the scheduler grants this UE. The lookup must be a pure
// function of time (no randomness) so observation stays side-effect free.
// nil restores sole tenancy.
func (l *Link) SetCapacityShare(fn func(time.Duration) float64) { l.shareFn = fn }

// effectiveCapacity folds in the handover radio degradation and the fleet
// capacity share; it returns 0 when the link is interrupted.
func (l *Link) effectiveCapacity(now time.Duration) float64 {
	c := l.capacity(now)
	if l.machine != nil {
		c *= l.machine.RadioDegradation(now)
	}
	if l.shareFn != nil {
		c *= l.shareFn(now)
	}
	return c
}

// lose decides radio loss for one packet using the Gilbert burst model,
// with extra loss above the profile's altitude threshold. A scripted loss
// fade (fault.Window with Loss set) erases every packet deterministically,
// without consuming the Gilbert stream's randomness.
func (l *Link) lose(now time.Duration) bool {
	if l.faults.Lossy(now) {
		return true
	}
	if l.prof.PER <= 0 {
		return false
	}
	burst := l.prof.MeanBurstLen
	if burst < 1 {
		burst = 1
	}
	if l.inBurst {
		if l.rng.Float64() < 1/burst {
			l.inBurst = false // burst ends after this (still lost) packet
		}
		return true
	}
	enter := l.prof.PER / burst / (1 - l.prof.PER)
	if l.lossAbove.At(now) {
		enter *= l.prof.AltLossFactor
	}
	if l.rng.Float64() < enter {
		l.inBurst = true
		return true
	}
	return false
}

// Send puts one media packet onto the link at the current simulation time.
func (l *Link) Send(meta any, size int) { l.send(meta, size, Media) }

// SendControl puts one control-plane packet (e.g. an RTCP sender report
// sharing the media bearer) onto the link. It traverses the same radio —
// loss model, queue and serialization — but is counted in the Control
// ledger, and its bytes do not count against the media buffer in the
// overflow check: RTCP's share of the bearer is bounded (RFC 3550 §6.2
// allots it 5% of session bandwidth; here it is one small report per
// second), so it is never tail-dropped.
func (l *Link) SendControl(meta any, size int) { l.send(meta, size, Control) }

// SendRTX puts one retransmitted media packet onto the link. RTX is media
// for the bottleneck — it occupies media buffer bytes, competes in the
// overflow admission and suffers AQM, stale flush and in-order delivery —
// but is counted in the RTX ledger.
func (l *Link) SendRTX(meta any, size int) { l.send(meta, size, RTX) }

// Count returns class c's ledger.
func (l *Link) Count(c Class) Counts { return l.ledger[c] }

func (l *Link) send(meta any, size int, class Class) {
	now := l.sim.Now()
	pkt := queued{meta: meta, size: size, sentAt: now, class: class, id: l.nextID}
	l.nextID++
	l.ledger[class].Sent++
	if l.trace != nil {
		l.trace.Emit(obs.Event{T: now, Kind: obs.KindSend, Dir: l.traceDir, Flags: class.flags(), Seq: pkt.id, Aux: int64(size)})
	}
	switch {
	case l.lose(now):
		l.drop(pkt, now, DropLoss)
	case class != Control && l.queueBytes+size > l.prof.BufferBytes:
		l.drop(pkt, now, DropOverflow)
	default:
		l.queue.Push(pkt)
		l.occupy(class, size)
		if !l.serving {
			l.serveNext()
		}
	}
}

// occupy adds n queued bytes of class c (n < 0 removes them). Control bytes
// are kept apart so they never take media admission space.
func (l *Link) occupy(c Class, n int) {
	if c == Control {
		l.ctrlQueueBytes += n
	} else {
		l.queueBytes += n
	}
}

// drop ends a packet's life on the link for reason r at now: the trace line,
// the ledger entry, then OnDrop. With land it is the only way
// out of the link.
func (l *Link) drop(pkt queued, now time.Duration, r DropReason) {
	if l.trace != nil {
		l.trace.Emit(obs.Event{T: now, Kind: obs.KindDrop, Dir: l.traceDir, Flags: pkt.class.flags(), Seq: pkt.id, Aux: int64(r)})
	}
	l.ledger[pkt.class].Dropped[r]++
	if l.OnDrop != nil {
		l.OnDrop(pkt.meta, pkt.size, pkt.sentAt, pkt.class, r)
	}
}

// QueueBytes returns the bytes waiting in the bottleneck buffer (media and
// control).
func (l *Link) QueueBytes() int { return l.queueBytes + l.ctrlQueueBytes }

// SampleQueueDelay estimates the buffer drain time at the current effective
// capacity, handover/degradation windows included. It steps the capacity
// fluctuation to now (drawing from the link RNG) before computing the drain
// time, exactly as every packet service does, so it is part of the
// simulated system: core's fault recovery probe samples it, and the
// capacity realization of fault campaigns (and their golden traces)
// includes those steps. The capacity is floored (at the profile's
// MinCapacity, or 1% of MeanCapacity if unset) so an interrupted link
// reports a large-but-finite backlog instead of dividing by zero.
func (l *Link) SampleQueueDelay() time.Duration {
	c := l.effectiveCapacity(l.sim.Now())
	floor := l.prof.MinCapacity
	if floor <= 0 {
		floor = 0.01 * l.prof.MeanCapacity
	}
	if floor < 1 {
		floor = 1
	}
	if c < floor {
		c = floor
	}
	return time.Duration(float64(l.QueueBytes()*8) / c * float64(time.Second))
}

// dequeueHead removes the head packet and returns it, keeping the per-plane
// byte accounting straight.
func (l *Link) dequeueHead() queued {
	head := l.queue.Pop()
	l.occupy(head.class, -head.size)
	return head
}

// Interrupted reports whether the link's service is interrupted at now —
// handover execution, RLF re-establishment or a scripted fault window. It
// is a pure read (the bond health monitor's outage probe); the link's own
// service path uses interruption below.
func (l *Link) Interrupted(now time.Duration) bool {
	_, down := l.interruption(now)
	return down
}

// interruption reports whether the link is silenced at now — handover
// execution, RLF re-establishment (both via the machine's busy window) or
// a scripted fault window — and the earliest instant service can resume.
func (l *Link) interruption(now time.Duration) (resume time.Duration, down bool) {
	resume = now
	if l.machine != nil && now < l.machine.Link.BusyUntil {
		down, resume = true, l.machine.Link.BusyUntil
	}
	if until, blocked := l.faults.Blocked(now); blocked {
		down = true
		if until > resume {
			resume = until
		}
	}
	if down && resume <= now {
		resume = now + time.Millisecond
	}
	return resume, down
}

// serveNext serves the head-of-line packet. Service is event-driven: the
// serialization time comes from the current effective capacity, and an
// interrupted link schedules exactly one resume event at the end of the
// interruption — no polling while the radio is dead.
func (l *Link) serveNext() {
	if l.queue.Len() == 0 {
		l.serving = false
		return
	}
	l.serving = true
	now := l.sim.Now()

	if resume, down := l.interruption(now); down {
		if !l.inOutage {
			l.inOutage = true
			l.outageStart = now
			if l.trace != nil {
				l.trace.Emit(obs.Event{T: now, Kind: obs.KindOutageStart, Dir: l.traceDir})
			}
		}
		l.pendingFlush = l.flushStale
		l.sim.At(resume, l.serveFn)
		return
	}
	if l.inOutage {
		l.inOutage = false
		if l.trace != nil {
			l.trace.Emit(obs.Event{T: now, Kind: obs.KindOutageEnd, Dir: l.traceDir,
				V: float64(now-l.outageStart) / float64(time.Millisecond)})
		}
	}
	if l.pendingFlush {
		// Service resumed after an interruption: discard the stale backlog
		// before serving (see SetFaults).
		l.pendingFlush = false
		l.dropStaleQueue(now)
		if l.queue.Len() == 0 {
			l.serving = false
			return
		}
	}

	c := l.effectiveCapacity(now)
	if c <= 0 {
		// Degraded to nothing outside any interruption window (only a
		// pathological profile gets here): retry shortly.
		l.sim.After(5*time.Millisecond, l.serveFn)
		return
	}
	l.codel(now)
	if l.queue.Len() == 0 {
		l.serving = false
		return
	}
	pkt := l.queue.At(0)
	ser := time.Duration(float64(pkt.size*8) / c * float64(time.Second))
	// HARQ/RLC retransmission pile-up at altitude: the radio stalls for a
	// while, and RLC's in-order delivery stalls everything behind it too
	// (Fig. 13's high-RTT outliers above 100 m). A service-time stall
	// keeps delivery FIFO, as LTE does; events follow a Poisson process
	// in at-altitude time.
	if l.outlierStall(now) {
		ser += time.Duration(100+l.rng.Float64()*900) * time.Millisecond
	}
	l.sim.After(ser, l.servedFn)
}

// served runs when the head-of-line packet finishes serialization: it moves
// the packet to the propagation stage and serves the next one.
func (l *Link) served() {
	pkt := l.dequeueHead()
	if l.queueHist != nil {
		l.queueHist.Add(float64(l.sim.Now()-pkt.sentAt) / float64(time.Millisecond))
	}
	l.deliver(pkt)
	l.serveNext()
}

// CoDel's parameters: the acceptable standing sojourn time and the
// interval it may be exceeded for.
const (
	codelTarget   = 50 * time.Millisecond
	codelInterval = 100 * time.Millisecond
)

// codel applies the CoDel control law at dequeue time: once the head-of-
// queue sojourn has exceeded the target for a whole interval, head packets
// are dropped at a rate that increases with the square root of the drop
// count until the sojourn falls back under the target.
func (l *Link) codel(now time.Duration) {
	if !l.prof.AQM {
		return
	}
	sojourn := func() (time.Duration, bool) {
		if l.queue.Len() == 0 {
			return 0, false
		}
		return now - l.queue.At(0).sentAt, true
	}
	s, ok := sojourn()
	if !ok || s < codelTarget {
		l.codelFirstAbove = 0
		l.codelDropping = false
		return
	}
	if l.codelFirstAbove == 0 {
		l.codelFirstAbove = now + codelInterval
		return
	}
	if !l.codelDropping {
		if now < l.codelFirstAbove {
			return
		}
		// Enter the dropping state. Resume near the previous drop rate if
		// we were dropping recently (CoDel's hysteresis).
		l.codelDropping = true
		if l.codelCount > 2 && now-l.codelDropNext < 8*codelInterval {
			l.codelCount -= 2
		} else {
			l.codelCount = 1
		}
		l.codelDropNext = now
	}
	for l.codelDropping && now >= l.codelDropNext {
		s, ok := sojourn()
		if !ok || s < codelTarget {
			l.codelDropping = false
			l.codelFirstAbove = 0
			return
		}
		l.drop(l.dequeueHead(), now, DropAQM)
		l.codelCount++
		l.codelDropNext = now + time.Duration(float64(codelInterval)/math.Sqrt(float64(l.codelCount)))
	}
}

// outlierStall decides whether a HARQ stall begins now, advancing the
// Poisson exposure clock while the vehicle is above the altitude threshold.
func (l *Link) outlierStall(now time.Duration) bool {
	if !l.stallAbove.At(now) {
		l.lastOutlierAt = now
		return false
	}
	if l.nextOutlierIn <= 0 {
		l.nextOutlierIn = time.Duration(l.rng.ExpFloat64() * float64(l.outlierMean))
	}
	l.nextOutlierIn -= now - l.lastOutlierAt
	l.lastOutlierAt = now
	if l.nextOutlierIn <= 0 {
		l.nextOutlierIn = 0 // resample on the next exposure
		return true
	}
	return false
}

// dropStaleQueue drops queued packets of every class older than staleAfter
// as DropStale: an RTX or a report that outlived the outage is as dead as
// stale media.
func (l *Link) dropStaleQueue(now time.Duration) {
	w := 0
	for i := 0; i < l.queue.Len(); i++ {
		pkt := *l.queue.At(i)
		if now-pkt.sentAt > l.staleAfter {
			l.occupy(pkt.class, -pkt.size)
			l.drop(pkt, now, DropStale)
			continue
		}
		*l.queue.At(w) = pkt
		w++
	}
	l.queue.Truncate(w) // releases dropped metas
}

// depart fixes when a packet leaving the bottleneck reaches the far end:
// propagation delay plus per-packet jitter, clamped monotonic per link. RLC
// delivers in order within the bearer, so jitter widens gaps but never
// reorders — which also means in-flight packets form a strict FIFO.
func (l *Link) depart() time.Duration {
	delay := l.prof.BaseOWD
	if l.prof.JitterSigma > 0 {
		j := time.Duration(math.Abs(l.rng.NormFloat64()) * float64(l.prof.JitterSigma))
		delay += j
	}
	at := l.sim.Now() + delay
	if at < l.lastArrival {
		at = l.lastArrival
	}
	l.lastArrival = at
	return at
}

// deliver puts the packet in flight. Its arrival's place among the
// simulator's events is reserved now; the timer is armed now only when
// nothing is ahead of it, otherwise by the arrival before it.
func (l *Link) deliver(pkt queued) {
	at := l.depart()
	seq := l.sim.Reserve()
	l.inflight.Push(pkt)
	l.arrivals.Push(arrivalSlot{at: at, seq: seq})
	if l.arrivals.Len() == 1 {
		l.sim.AtReserved(at, seq, l.arriveFn)
	}
}

// arrive completes delivery of the oldest in-flight packet. The next
// arrival is armed before Deliver runs, so whatever Deliver schedules for
// this instant still fires after it only if it did before.
func (l *Link) arrive() {
	pkt := l.inflight.Pop()
	l.arrivals.Pop()
	if l.arrivals.Len() > 0 {
		next := l.arrivals.At(0)
		l.sim.AtReserved(next.at, next.seq, l.arriveFn)
	}
	l.land(pkt)
}

// land hands an arrived packet to the far end.
func (l *Link) land(pkt queued) {
	l.ledger[pkt.class].Delivered++
	now := l.sim.Now()
	if l.trace != nil {
		l.trace.Emit(obs.Event{T: now, Kind: obs.KindRecv, Dir: l.traceDir, Flags: pkt.class.flags(),
			Seq: pkt.id, Aux: int64(pkt.size), V: float64(now-pkt.sentAt) / float64(time.Millisecond)})
	}
	l.Deliver(pkt.meta, pkt.size, pkt.sentAt, now)
}
