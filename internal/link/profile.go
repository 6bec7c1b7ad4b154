package link

import (
	"time"

	"rpivideo/internal/cell"
)

// Profile holds the calibrated parameters of one emulated LTE uplink. Each
// field cites the paper statistic it targets (see DESIGN.md §4 and
// EXPERIMENTS.md for the paper-vs-measured record).
type Profile struct {
	// MeanCapacity is the long-run average uplink capacity in bits/s.
	// Urban P1 sustains static 25 Mbps with headroom (≈40 Mbps uplink,
	// §4.2.1); rural P1 supports ≈8–10 Mbps (Fig. 6); rural P2 roughly
	// doubles P1 (Fig. 10a).
	MeanCapacity float64
	// CapSigma is the relative standard deviation of the
	// Ornstein–Uhlenbeck capacity fluctuation. The rural link is the
	// volatile one (Fig. 6: adaptive beats static only there).
	CapSigma float64
	// CapTau is the capacity-fluctuation correlation time.
	CapTau time.Duration
	// MinCapacity floors the fluctuation.
	MinCapacity float64

	// BaseOWD is the fixed propagation+core one-way delay. The lowest
	// recorded RTT UE↔AWS was ≈35 ms; rural latency sits above urban
	// (Fig. 5).
	BaseOWD time.Duration
	// JitterSigma is the per-packet delay jitter standard deviation.
	JitterSigma time.Duration

	// BufferBytes is the bottleneck buffer: cellular deep buffers mean
	// fluctuations show up as delay, not loss (§4.1, bufferbloat).
	BufferBytes int

	// PER is the residual packet error rate (paper: 0.06–0.07 %), applied
	// in bursts of MeanBurstLen consecutive packets ("most of the observed
	// packet drops occurred consecutively").
	PER          float64
	MeanBurstLen float64

	// AltLossAbove adds loss above this altitude (m): the paper observed
	// packet loss above 80 m in the urban environment (§4.2.1). Zero
	// disables.
	AltLossAbove  float64
	AltLossFactor float64 // multiplier on the burst-entry probability

	// AQM enables a CoDel-style active queue manager on the bottleneck
	// buffer — the §5 bufferbloat mitigation ("optimizing deep network
	// queues for video traffic") — with codelTarget and codelInterval.
	AQM bool

	// AltOutlierAbove enables rare link stalls (HARQ/RLC retransmission
	// pile-ups) above this altitude (m): Fig. 13 shows the proportion of
	// high-RTT outliers grows above 100 m. AltOutlierRate is the stall
	// rate in events per second while at altitude.
	AltOutlierAbove float64
	AltOutlierRate  float64
}

// ProfileFor returns the uplink profile for an environment/operator pair.
func ProfileFor(env cell.Environment, op cell.Operator) Profile {
	switch {
	case env == cell.Urban:
		p := Profile{
			MeanCapacity:    38e6,
			CapSigma:        0.10,
			CapTau:          8 * time.Second,
			MinCapacity:     16e6,
			BaseOWD:         22 * time.Millisecond,
			JitterSigma:     1500 * time.Microsecond,
			BufferBytes:     1200 << 10, // ≈260 ms at 38 Mbps
			PER:             0.0004,
			MeanBurstLen:    10,
			AltLossAbove:    80,
			AltLossFactor:   2,
			AltOutlierAbove: 100,
			AltOutlierRate:  0.04,
		}
		if op == cell.P2 {
			p.MeanCapacity = 40e6
		}
		return p
	case op == cell.P1:
		return Profile{
			MeanCapacity:    11.5e6,
			CapSigma:        0.24,
			CapTau:          5 * time.Second,
			MinCapacity:     5.5e6,
			BaseOWD:         30 * time.Millisecond,
			JitterSigma:     2500 * time.Microsecond,
			BufferBytes:     1500 << 10, // ≈1 s at 12 Mbps
			PER:             0.0004,
			MeanBurstLen:    10,
			AltOutlierAbove: 100,
			AltOutlierRate:  0.05,
		}
	default:
		return Profile{
			MeanCapacity:    24e6,
			CapSigma:        0.25,
			CapTau:          5 * time.Second,
			MinCapacity:     6e6,
			BaseOWD:         28 * time.Millisecond,
			JitterSigma:     2 * time.Millisecond,
			BufferBytes:     2 << 20,
			PER:             0.0004,
			MeanBurstLen:    10,
			AltOutlierAbove: 100,
			AltOutlierRate:  0.05,
		}
	}
}

// FeedbackProfile returns the downlink profile used for RTCP feedback: the
// downlink is provisioned far above the feedback rate (the plans allowed
// 300–500 Mbps down), so it contributes base delay and shares the radio
// interruptions but adds no congestion of its own.
func FeedbackProfile() Profile {
	return Profile{
		MeanCapacity: 100e6,
		CapSigma:     0.05,
		CapTau:       10 * time.Second,
		MinCapacity:  50e6,
		BaseOWD:      13 * time.Millisecond,
		JitterSigma:  time.Millisecond,
		BufferBytes:  4 << 20,
		PER:          0.0002,
		MeanBurstLen: 2,
	}
}
