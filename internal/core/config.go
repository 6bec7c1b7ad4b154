// Package core assembles the complete measurement pipeline of the paper —
// mobility, radio access, link emulation, RTP transport with congestion
// control, and the video pipeline — into runnable flight experiments, and
// aggregates the metrics every figure and table of the evaluation needs.
package core

import (
	"fmt"
	"time"

	"rpivideo/internal/bond"
	"rpivideo/internal/cell"
	"rpivideo/internal/endpoint"
	"rpivideo/internal/fault"
	"rpivideo/internal/repair"
)

// CCKind selects the rate-control regime (§3.2: static, GCC or SCReAM); the
// type and its names belong to the sending endpoint that builds the
// controller.
type CCKind = endpoint.CC

// Rate-control regimes.
const (
	CCStatic = endpoint.CCStatic
	CCGCC    = endpoint.CCGCC
	CCSCReAM = endpoint.CCSCReAM
)

// Workload selects the traffic the experiment carries.
type Workload int

// Workloads.
const (
	// WorkloadVideo is the RTP video stream (the main campaign).
	WorkloadVideo Workload = iota
	// WorkloadPing is the ICMP-like probe stream of Fig. 13 (no cross
	// traffic).
	WorkloadPing
)

// Config describes one measurement run.
type Config struct {
	// Env and Op pick the environment and operator (§3.1).
	Env cell.Environment
	Op  cell.Operator
	// Air selects the aerial campaign (UAV trajectory) versus the ground
	// one (motorbike profile).
	Air bool
	// CC is the rate-control regime for video workloads.
	CC CCKind
	// StaticRate is the constant bitrate for CCStatic; zero selects the
	// paper's per-environment choice (25 Mbps urban, 8 Mbps rural).
	StaticRate float64
	// Workload defaults to WorkloadVideo.
	Workload Workload
	// Seed drives all randomness; a (Config, Seed) pair reproduces
	// bit-identically.
	Seed int64
	// Duration overrides the mobility profile duration when non-zero.
	Duration time.Duration

	// ScreamAckWindow overrides the RFC 8888 feedback window (§4.2.1
	// ablation); zero gives the campaign's 256, the window the authors
	// raised the library's 64 to. The ablation sets 64.
	ScreamAckWindow int
	// ScreamFeedbackInterval overrides the RFC 8888 report cadence (10 ms
	// when zero). The §4.2.1 defect arithmetic — more packets arriving
	// between two consecutive reports than the ack window covers — is a
	// function of this cadence, the packet size and the bitrate.
	ScreamFeedbackInterval time.Duration
	// GCCTrendline selects the trendline delay estimator (modern WebRTC)
	// instead of the paper-era Kalman filter (estimator ablation).
	GCCTrendline bool
	// JitterBuffer overrides the player jitter buffer (150 ms when zero).
	JitterBuffer time.Duration
	// DropOnLatency enables the rtpjitterbuffer drop-on-latency behaviour
	// (Appendix A.4 ablation): frames older than the jitter buffer plus
	// dropMargin are dropped instead of played late.
	DropOnLatency bool

	// Trace enables per-run event tracing (internal/obs): every packet
	// send/receive/drop, outage window, handover, RLF, congestion-control
	// decision and frame-play lands in Result.Trace — the one per-packet
	// recording of a run, which internal/obs/analyze turns into the Fig. 8/9
	// window analyses and the per-second series. Tracing is strictly
	// observational — it draws no randomness and schedules no events — so a
	// traced run's Result is identical to the untraced one. Off by default;
	// the disabled path costs one nil check per event site.
	Trace bool
	// TraceCap bounds the trace ring buffer in events; the ring keeps the
	// newest events and counts the overwritten ones. Zero or negative keeps
	// every event (unbounded).
	TraceCap int

	// The §5 "what could fix this" extensions, off by default:

	// DAPS switches handovers to the Dual Active Protocol Stack
	// make-before-break procedure (3GPP Rel-16): no execution gap, masked
	// pre/post-handover degradation.
	DAPS bool
	// AQM enables a CoDel queue manager on the bottleneck buffer instead
	// of the operator's deep FIFO (the bufferbloat mitigation).
	AQM bool
	// Bond arms dual-operator link bonding (internal/bond): a second radio
	// chain over the competing operator, a per-path health monitor with
	// hysteresis, the selected scheduling policy (duplicate, failover,
	// cheapest or spray) and, for striping policies, a receiver-side
	// bounded reorder buffer. The zero value disables bonding. Video
	// workloads only.
	Bond bond.Config

	// Faults arms deterministic fault injection — scripted coverage
	// outages, radio-link failures and the graceful-degradation machinery
	// they exercise (see internal/fault). The zero value disables
	// everything and leaves the calibrated campaign results untouched.
	Faults fault.Config

	// Repair arms the NACK/RTX packet-loss repair layer (internal/repair).
	// The zero value disables it and leaves the calibrated campaign
	// results untouched; set Enabled (zero fields then take the
	// calibrated defaults via WithDefaults).
	Repair repair.Config

	// Fleet-scale shared-cell fields (RunFleet, fleet.go). All zero for
	// solo runs, which keeps every calibrated result unchanged:

	// Cells injects a pre-built shared base-station map instead of drawing
	// a private per-run deployment from the "cell" stream. The fleet
	// runner gives every UAV the same slice so they contend for the same
	// cells.
	Cells []cell.BS
	// OffsetX and OffsetY translate the mobility profile's origin
	// (metres), scattering a fleet's UAVs over the shared deployment
	// instead of flying the identical track.
	OffsetX, OffsetY float64
}

// watchdogTimeout resolves the feedback-starvation threshold when the
// fault layer arms the watchdog.
func (c Config) watchdogTimeout() time.Duration {
	if c.Faults.WatchdogTimeout > 0 {
		return c.Faults.WatchdogTimeout
	}
	return 750 * time.Millisecond
}

// dropMargin is how far past the jitter buffer a frame may be before the
// drop-on-latency player drops it.
const dropMargin = 100 * time.Millisecond

// staticRate resolves the constant bitrate for this config.
func (c Config) staticRate() float64 {
	if c.StaticRate > 0 {
		return c.StaticRate
	}
	if c.Env == cell.Urban {
		return 25e6
	}
	return 8e6
}

// Label names the run for tables and traces.
func (c Config) Label() string {
	mode := "grd"
	if c.Air {
		mode = "air"
	}
	return fmt.Sprintf("%s-%s-%s-%s", c.Env, c.Op, mode, c.CC)
}
