package gcc

import (
	"math"
	"time"
)

// rateState is the AIMD controller FSM state (Carlucci et al. Fig. 4).
type rateState int

const (
	stateIncrease rateState = iota
	stateHold
	stateDecrease
)

func (s rateState) String() string {
	switch s {
	case stateIncrease:
		return "increase"
	case stateHold:
		return "hold"
	default:
		return "decrease"
	}
}

// aimd is the delay-based remote-rate controller: multiplicative increase
// far from convergence, additive increase near it, and a decrease to
// β·R̂ (received rate) on over-use.
type aimd struct {
	state   rateState
	rate    float64 // current delay-based estimate A_hat (bits/s)
	minRate float64
	maxRate float64

	// Convergence tracking: exponential average and variance of the
	// incoming rate at the time of over-use, used to decide between
	// multiplicative and additive increase.
	avgMaxRate    float64 // bits/s
	varMaxRate    float64 // normalized
	avgMaxSet     bool
	lastUpdate    time.Duration
	lastDecrease  time.Duration
	responseTime  time.Duration
	avgPacketBits float64
}

const (
	beta = 0.85
	// etaPerResponse is the multiplicative increase factor applied once per
	// response time (setRTT: RTT + 100 ms, at least 150 ms), not per second
	// as the draft's η is. It ramps 2 to 25 Mbps in 5.8 s (tbl-rampup at
	// three runs; the paper reports ≈12 s): EXPERIMENTS.md deviation 6,
	// ROADMAP item 19.
	etaPerResponse = 1.08
	// convergenceTTL is how long the near-convergence region stays valid
	// without fresh over-use evidence.
	convergenceTTL = 2500 * time.Millisecond
)

func newAIMD(initial, min, max float64) aimd {
	return aimd{
		state:         stateIncrease,
		rate:          initial,
		minRate:       min,
		maxRate:       max,
		responseTime:  250 * time.Millisecond,
		avgPacketBits: 9600, // 1200-byte packets
	}
}

// resetTo rebases the controller at rate with no convergence history — the
// post-outage restart: the pre-outage region says nothing about the
// re-established radio.
func (a *aimd) resetTo(rate float64, now time.Duration) {
	if rate < a.minRate {
		rate = a.minRate
	}
	a.rate = rate
	a.state = stateHold
	a.avgMaxSet = false
	a.lastUpdate = now
}

// setRTT updates the response time estimate (RTT plus the over-use
// detection latency).
func (a *aimd) setRTT(rtt time.Duration) {
	a.responseTime = rtt + 100*time.Millisecond
	if a.responseTime < 150*time.Millisecond {
		a.responseTime = 150 * time.Millisecond
	}
}

// update applies one detector signal. recvRate is the measured incoming
// rate R̂ in bits/s; now is the feedback arrival time.
func (a *aimd) update(signal Signal, recvRate float64, now time.Duration) float64 {
	// FSM transitions per Carlucci et al. Fig. 4.
	switch signal {
	case SignalOveruse:
		a.state = stateDecrease
	case SignalUnderuse:
		// The bottleneck queue is draining; hold to let it empty before
		// increasing again.
		a.state = stateHold
	default:
		if a.state != stateIncrease {
			a.state = stateIncrease
			a.lastUpdate = now
		}
	}

	dt := now - a.lastUpdate
	if dt < 0 || dt > time.Second {
		dt = time.Second
	}

	switch a.state {
	case stateIncrease:
		// The incoming rate escaping far above the remembered convergence
		// region means the link now carries more than it ever did at
		// over-use: forget the region and probe multiplicatively again.
		if a.avgMaxSet && recvRate > a.avgMaxRate+3*a.stdMaxRate() {
			a.avgMaxSet = false
		}
		// The region also goes stale: without fresh over-use evidence the
		// link may long since have recovered (transient handover spikes),
		// so fall back to multiplicative probing.
		if a.avgMaxSet && now-a.lastDecrease > convergenceTTL {
			a.avgMaxSet = false
		}
		if a.nearConvergence(recvRate) {
			// Additive: about one packet per response time.
			inc := a.avgPacketBits * (dt.Seconds() / a.responseTime.Seconds())
			if inc < 1000*dt.Seconds() {
				inc = 1000 * dt.Seconds()
			}
			a.rate += inc
		} else {
			factor := math.Pow(etaPerResponse, dt.Seconds()/a.responseTime.Seconds())
			if factor > 1.5 {
				factor = 1.5
			}
			a.rate *= factor
		}
		// Never run more than 1.5× ahead of what is actually getting
		// through.
		if recvRate > 0 && a.rate > 1.5*recvRate {
			a.rate = 1.5 * recvRate
		}
	case stateDecrease:
		if recvRate > 0 {
			a.rate = beta * recvRate
		} else {
			a.rate = beta * a.rate
		}
		// An incoming rate far below the convergence region is a transient
		// outage, not new information about capacity: reset the region
		// rather than poisoning it (as in the reference AimdRateControl).
		if a.avgMaxSet && recvRate < a.avgMaxRate-3*a.stdMaxRate() {
			a.avgMaxSet = false
		} else {
			a.updateMaxRate(recvRate)
		}
		a.lastDecrease = now
		// One decrease per over-use episode; fall back to hold.
		a.state = stateHold
	case stateHold:
		// Keep the rate.
	}

	if a.rate < a.minRate {
		a.rate = a.minRate
	} else if a.rate > a.maxRate {
		a.rate = a.maxRate
	}
	a.lastUpdate = now
	return a.rate
}

// stdMaxRate returns the standard deviation of the convergence-region
// estimate in bits/s.
func (a *aimd) stdMaxRate() float64 {
	return math.Sqrt(a.varMaxRate) * a.avgMaxRate
}

// nearConvergence reports whether the incoming rate is close to the average
// rate at which over-use historically sets in — the cue to switch from
// multiplicative to additive increase.
func (a *aimd) nearConvergence(recvRate float64) bool {
	if !a.avgMaxSet || a.avgMaxRate <= 0 {
		return false
	}
	std := a.stdMaxRate()
	return recvRate > a.avgMaxRate-3*std && recvRate < a.avgMaxRate+3*std
}

// updateMaxRate folds the incoming rate at decrease time into the
// convergence tracker.
func (a *aimd) updateMaxRate(recvRate float64) {
	if recvRate <= 0 {
		return
	}
	const alpha = 0.05
	if !a.avgMaxSet {
		a.avgMaxRate = recvRate
		a.varMaxRate = 0.02
		a.avgMaxSet = true
		return
	}
	norm := (recvRate - a.avgMaxRate) / a.avgMaxRate
	a.avgMaxRate += alpha * (recvRate - a.avgMaxRate)
	a.varMaxRate = (1-alpha)*a.varMaxRate + alpha*norm*norm
	if a.varMaxRate < 0.001 {
		a.varMaxRate = 0.001
	} else if a.varMaxRate > 2.5 {
		a.varMaxRate = 2.5
	}
}

// lossController is GCC's loss-based controller: it reduces the rate only
// under substantial loss (>10 %), increases it under negligible loss (<2 %)
// and holds in between (Carlucci et al. §3.4).
type lossController struct {
	rate    float64
	minRate float64
	maxRate float64
}

func newLossController(initial, min, max float64) lossController {
	return lossController{rate: initial, minRate: min, maxRate: max}
}

// update applies one feedback report's loss fraction.
func (l *lossController) update(lossFraction float64) float64 {
	switch {
	case lossFraction > 0.10:
		l.rate *= 1 - 0.5*lossFraction
	case lossFraction < 0.02:
		l.rate *= 1.05
	}
	if l.rate < l.minRate {
		l.rate = l.minRate
	} else if l.rate > l.maxRate {
		l.rate = l.maxRate
	}
	return l.rate
}
