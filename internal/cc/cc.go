// Package cc defines the congestion-controller contract shared by the three
// rate-control regimes the paper compares — GCC, SCReAM and static bitrate —
// together with the sender-side machinery they plug into: the paced send
// queue and per-packet bookkeeping.
package cc

import (
	"time"

	"rpivideo/internal/obs"
)

// MinRate and MaxRate are the paper's encoder range in bits/s (§3.2): the
// x264 target never leaves [2, 25] Mbps, so GCC and SCReAM clamp their
// targets to it, start at its floor, and the encoder clamps what it is
// asked for.
const (
	MinRate = 2e6
	MaxRate = 25e6
)

// SentPacket describes one media packet entering the network.
type SentPacket struct {
	// TransportSeq is the transport-wide sequence number (GCC feedback key).
	TransportSeq uint16
	// Seq is the RTP sequence number (SCReAM feedback key).
	Seq uint16
	// Size is the wire size in bytes.
	Size int
	// SendTime is when the packet left the pacer, in sender time.
	SendTime time.Duration
}

// Ack is one normalized feedback item: the fate of one previously sent
// packet, as reported by the receiver. The transport layer matches feedback
// to SentPackets and fills in both clocks.
type Ack struct {
	TransportSeq uint16
	Seq          uint16
	Size         int
	// SendTime is the sender-clock departure time.
	SendTime time.Duration
	// Received reports whether the receiver saw the packet.
	Received bool
	// ArrivalTime is the receiver-clock arrival time (valid if Received).
	ArrivalTime time.Duration
}

// Controller adapts the media bitrate to network conditions.
//
// TargetBitrate drives the encoder; PacingRate drives the pacer; CanSend
// gates window-limited (self-clocked) controllers.
type Controller interface {
	// OnPacketSent informs the controller that a packet entered the network.
	OnPacketSent(p SentPacket)
	// OnFeedback delivers a feedback report. now is the sender-clock time
	// the report arrived; acks are in sequence order.
	//
	// An RFC 8888 report (keyed by Seq) may arrive with repeats left out: a
	// received ack whose packet an earlier report already acknowledged as
	// received since it was last sent (OnPacketSent) need not be listed,
	// except the report's first and last ack and its highest received one.
	// A controller must act on such a list exactly as on the full one. So
	// acks[0].Seq is the report's begin_seq, the list is empty only for an
	// empty report, and the report covers last.Seq − acks[0].Seq + 1
	// sequence numbers, which may exceed len(acks).
	OnFeedback(now time.Duration, acks []Ack)
	// TargetBitrate returns the bitrate (bits/s) the encoder should aim for.
	TargetBitrate(now time.Duration) float64
	// PacingRate returns the rate (bits/s) at which queued packets should be
	// clocked out.
	PacingRate(now time.Duration) float64
	// CanSend reports whether a packet of the given size may enter the
	// network now. Rate-based controllers always return true;
	// window-limited controllers enforce bytes-in-flight ≤ cwnd.
	CanSend(now time.Duration, size int) bool
	// Name identifies the controller in traces and experiment output.
	Name() string
}

// Traceable is implemented by controllers that can emit obs.KindCC events
// describing each rate decision. The run harness type-asserts against it so
// the Controller interface stays unchanged for controllers that do not
// trace (e.g. Static, whose target never moves).
type Traceable interface {
	// SetTracer attaches an event tracer; nil disables tracing.
	SetTracer(*obs.Tracer)
}

// RepairAware is implemented by controllers that account retransmission
// traffic against their media target. The repair layer's budget registers
// its spend-rate probe here (bits/s over a trailing window); the controller
// subtracts it from the encoder target so media plus repair together honor
// the congested rate, instead of RTX riding on top of it. The run harness
// type-asserts against it, so the Controller interface stays unchanged for
// regimes that never repair.
type RepairAware interface {
	// SetRepairSpend registers the repair spend-rate probe; nil detaches.
	SetRepairSpend(func(now time.Duration) float64)
}

// RepairAdjust subtracts the repair spend from a media target, floored at
// min: even a busy repair path must not starve the encoder below its
// operating floor.
func RepairAdjust(target float64, spend func(time.Duration) float64, now time.Duration, min float64) float64 {
	if spend == nil {
		return target
	}
	target -= spend(now)
	if target < min {
		return min
	}
	return target
}

// Static is the paper's baseline: a constant bitrate chosen per environment
// (25 Mbps urban, 8 Mbps rural) from trial runs.
type Static struct {
	// Rate is the constant target bitrate in bits/s.
	Rate float64

	repairSpend func(time.Duration) float64
}

// staticPacingFactor multiplies Static's rate for the pacer to absorb
// encoder burstiness.
const staticPacingFactor = 1.5

// NewStatic returns a constant-bitrate controller.
func NewStatic(bitsPerSecond float64) *Static {
	return &Static{Rate: bitsPerSecond}
}

// OnPacketSent implements Controller.
func (s *Static) OnPacketSent(SentPacket) {}

// OnFeedback implements Controller.
func (s *Static) OnFeedback(time.Duration, []Ack) {}

// TargetBitrate implements Controller. Repair spend comes out of the
// constant rate (floored at half, the static regime's de facto minimum) so
// the wire never carries more than the provisioned bitrate.
func (s *Static) TargetBitrate(now time.Duration) float64 {
	return RepairAdjust(s.Rate, s.repairSpend, now, s.Rate/2)
}

// SetRepairSpend implements RepairAware.
func (s *Static) SetRepairSpend(f func(time.Duration) float64) { s.repairSpend = f }

// PacingRate implements Controller.
func (s *Static) PacingRate(time.Duration) float64 {
	return s.Rate * staticPacingFactor
}

// CanSend implements Controller.
func (s *Static) CanSend(time.Duration, int) bool { return true }

// Name implements Controller.
func (s *Static) Name() string { return "static" }

// Pacer spaces packet departures to a byte budget so the sender does not
// burst whole frames into the access link.
type Pacer struct {
	// nextFree is the earliest time the link budget admits another packet.
	nextFree time.Duration
}

// Next returns the departure time for a packet of size bytes when the
// pacing rate is rate bits/s, and advances the pacer state. A non-positive
// rate sends immediately.
func (p *Pacer) Next(now time.Duration, size int, rate float64) time.Duration {
	at := p.nextFree
	if at < now {
		at = now
	}
	if rate > 0 {
		p.nextFree = at + time.Duration(float64(size*8)/rate*float64(time.Second))
	} else {
		p.nextFree = at
	}
	return at
}

// Idle reports whether the pacer budget is free at time now.
func (p *Pacer) Idle(now time.Duration) bool { return p.nextFree <= now }

// FreeAt returns when the pacer budget next becomes free.
func (p *Pacer) FreeAt() time.Duration { return p.nextFree }
