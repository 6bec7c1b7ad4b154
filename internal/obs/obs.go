// Package obs is the observability layer of the simulator: a
// zero-allocation-on-hot-path event tracer for per-run time-series
// observables (the per-packet and per-frame signals the paper's analysis
// rests on), a campaign-level metrics registry whose histograms are
// metrics.Sketch (one log-bucket layout for all), a byte-stable JSONL/JSON
// export format, and a pprof/runtime-metrics HTTP endpoint.
//
// Determinism contract: tracing never draws randomness, never schedules
// simulator events and never perturbs the run it observes — a run with
// tracing enabled produces the same Result as one without. Each run owns
// its tracer, and campaign exports serialize runs in run-index order, so
// trace and metrics output is byte-identical at any campaign worker count.
package obs

import "time"

// Kind classifies a trace event. Field semantics per kind are documented
// on the constants (and tabulated in DESIGN.md §6).
type Kind uint8

// Event kinds.
const (
	// KindSend is a packet offered to a link. Seq: link-local packet id;
	// Aux: wire size in bytes.
	KindSend Kind = iota
	// KindRecv is a packet delivered by a link. Seq: packet id; Aux: wire
	// size; V: one-way delay in milliseconds.
	KindRecv
	// KindDrop is a packet dropped by a link. Seq: packet id; Aux: the
	// drop reason (the link layer's DropReason numeric value).
	KindDrop
	// KindOutageStart marks the instant a link first observes its service
	// interrupted (handover execution, RLF re-establishment or a scripted
	// fault window).
	KindOutageStart
	// KindOutageEnd marks service resumption on that link.
	KindOutageEnd
	// KindHandover is a completed handover. Seq: source cell; Aux: target
	// cell; V: handover execution time in milliseconds.
	KindHandover
	// KindRLF is a declared radio-link failure. Seq: serving cell at
	// failure; Aux: cause (cell.RLFCause numeric value); V: blackout
	// length in milliseconds.
	KindRLF
	// KindCC is a congestion-controller rate decision. Seq: controller
	// detail (GCC: over-use signal; SCReAM: congestion window in bytes);
	// Aux: acks in the feedback report (SCReAM: the sequence numbers the
	// report covers, repeats left out or not); V: target bitrate in bits/s.
	KindCC
	// KindFramePlay is a frame that reached the screen. Seq: frame
	// number; Aux: playback latency in whole milliseconds; V: SSIM score.
	KindFramePlay
	// KindFrameSkip is a frame abandoned undecoded. Seq: frame number.
	KindFrameSkip
	// KindStall is a playback interruption, emitted when playback
	// resumes. V: gap length in milliseconds.
	KindStall
	// KindNack is a Generic NACK feedback message leaving the receiver.
	// Seq: first sequence number requested; Aux: sequence count.
	KindNack
	// KindRTX is a retransmission leaving the sender in answer to a NACK.
	// Seq: original media sequence number; Aux: wire size in bytes.
	KindRTX
	// KindRepairOK is a missing packet healed at the receiver. Seq: media
	// sequence number; Aux: 1 if healed by an RTX, 0 by the late original;
	// V: loss-to-heal delay in milliseconds.
	KindRepairOK
	// KindRepairAbandoned is a missing packet the repair layer gave up on
	// (retry cap reached or pending bound hit); recovery falls back to the
	// player's keyframe-request path. Seq: media sequence number; Aux:
	// NACKs spent on it. The detector's outage guard emits one summary
	// event per dead span instead: Seq is the first missing sequence
	// number and Aux the span length.
	KindRepairAbandoned
	// KindPathDown is a bonded path declared unhealthy by the bond health
	// monitor (outage or loss breach past the hysteresis). Seq: path index;
	// Aux: cause (bond.DownCause numeric value).
	KindPathDown
	// KindPathUp is a bonded path readmitted after its probation. Seq:
	// path index; V: milliseconds the path spent down.
	KindPathUp
	// KindFailover is the failover scheduler switching its active path.
	// Seq: previous active path; Aux: new active path.
	KindFailover
	// KindReorderDrop is a packet the bonded reorder buffer discarded as
	// too late (its slot was already released to the player). Seq:
	// extended media sequence number.
	KindReorderDrop
	// KindCellAttach is a fleet UE camping on a cell (first attach or the
	// attach half of a handover), sampled at scheduling-epoch granularity.
	// Seq: UAV index; Aux: cell ID; V: serving RSRP (dBm).
	KindCellAttach
	// KindCellDetach is a fleet UE leaving a cell (the detach half of a
	// handover). Seq: UAV index; Aux: cell ID.
	KindCellDetach
	// KindCellOverloadStart is a shared cell entering overload: at least
	// two attached UEs and some UE's scheduled share below the overload
	// floor. Seq: cell ID; Aux: attached users; V: the epoch's min share.
	KindCellOverloadStart
	// KindCellOverloadEnd is the cell leaving overload (or emptying).
	// Seq: cell ID; Aux: attached users at the transition (0 if emptied).
	KindCellOverloadEnd
)

// String implements fmt.Stringer; the strings are the JSONL kind values.
func (k Kind) String() string {
	switch k {
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindDrop:
		return "drop"
	case KindOutageStart:
		return "outage-start"
	case KindOutageEnd:
		return "outage-end"
	case KindHandover:
		return "handover"
	case KindRLF:
		return "rlf"
	case KindCC:
		return "cc"
	case KindFramePlay:
		return "frame-play"
	case KindFrameSkip:
		return "frame-skip"
	case KindStall:
		return "stall"
	case KindNack:
		return "nack-sent"
	case KindRTX:
		return "rtx-sent"
	case KindRepairOK:
		return "repair-ok"
	case KindRepairAbandoned:
		return "repair-abandoned"
	case KindPathDown:
		return "path-down"
	case KindPathUp:
		return "path-up"
	case KindFailover:
		return "failover"
	case KindReorderDrop:
		return "reorder-drop"
	case KindCellAttach:
		return "cell-attach"
	case KindCellDetach:
		return "cell-detach"
	case KindCellOverloadStart:
		return "cell-overload-start"
	case KindCellOverloadEnd:
		return "cell-overload-end"
	default:
		return "unknown"
	}
}

// Dir identifies which emulated link (or radio chain) an event belongs to.
type Dir uint8

// Directions.
const (
	// DirNone is for events not tied to one link direction (CC decisions,
	// player events, the primary radio chain's cell events).
	DirNone Dir = iota
	// DirUp is the media uplink (vehicle → operator).
	DirUp
	// DirDown is the feedback downlink.
	DirDown
	// DirUp2 is the second (multipath) uplink and its radio chain.
	DirUp2
)

// String implements fmt.Stringer; the strings are the JSONL dir values.
func (d Dir) String() string {
	switch d {
	case DirUp:
		return "up"
	case DirDown:
		return "down"
	case DirUp2:
		return "up2"
	default:
		return ""
	}
}

// Event flag bits.
const (
	// FlagCtrl marks control-plane packets (RTCP sharing the media
	// bearer) on send/recv/drop events.
	FlagCtrl uint8 = 1 << iota
	// FlagRTX marks retransmitted media packets (the RFC 4588 repair
	// stream sharing the media bottleneck) on send/recv/drop events.
	FlagRTX
)

// Event is one typed trace record. It is a flat value type — no pointers,
// no interfaces — so emitting one performs no allocation and a ring of
// them is a single contiguous block. Seq, Aux and V carry kind-specific
// payloads (see the Kind constants).
type Event struct {
	// T is the simulation time of the event. Components emit at their
	// current simulation time, so a run's trace is time-ordered.
	T     time.Duration
	Kind  Kind
	Dir   Dir
	Flags uint8
	Seq   int64
	Aux   int64
	V     float64
}
