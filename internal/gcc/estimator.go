package gcc

import "math"

// Signal is the over-use detector output driving the rate controller FSM.
type Signal int

// Detector signals.
const (
	SignalNormal Signal = iota
	SignalOveruse
	SignalUnderuse
)

// String implements fmt.Stringer.
func (s Signal) String() string {
	switch s {
	case SignalOveruse:
		return "overuse"
	case SignalUnderuse:
		return "underuse"
	default:
		return "normal"
	}
}

// kalman estimates the one-way queuing-delay gradient m(t) from per-group
// delay-variation measurements, following Carlucci et al. §3.1 (the arrival
// filter of the paper's GCC implementation).
type kalman struct {
	m        float64 // estimated gradient (ms per group)
	variance float64 // estimate variance e(i)
	varNoise float64 // adaptive measurement-noise variance
	count    int
}

func newKalman() kalman {
	return kalman{variance: 0.1, varNoise: 50}
}

// update feeds one delay-variation measurement d (ms) and returns the new
// gradient estimate.
func (k *kalman) update(d float64) float64 {
	const q = 1e-3 // process noise
	// Residual w.r.t. the prediction.
	z := d - k.m
	// Adapt the measurement noise to the residual magnitude (exponential
	// average). The residual is clamped to 3σ as in the reference
	// implementation, so a genuine gradient step raises the gain instead of
	// being absorbed as noise.
	alpha := 0.95
	if k.count < 30 {
		alpha = 0.8 // learn faster during startup
	}
	k.count++
	limit := 3 * math.Sqrt(k.varNoise)
	zc := z
	if zc > limit {
		zc = limit
	} else if zc < -limit {
		zc = -limit
	}
	k.varNoise = alpha*k.varNoise + (1-alpha)*zc*zc
	if k.varNoise < 1 {
		k.varNoise = 1
	}
	gain := (k.variance + q) / (k.variance + q + k.varNoise)
	k.m += gain * z
	k.variance = (1 - gain) * (k.variance + q)
	return k.m
}

// detector is the adaptive-threshold over-use detector (Carlucci et al.
// §3.2). It compares the gradient estimate against a threshold γ(t) that
// adapts to the gradient magnitude, and requires over-use to persist before
// signalling.
type detector struct {
	gamma       float64 // adaptive threshold (ms)
	overuseFor  float64 // ms spent above threshold
	prevM       float64
	lastSignal  Signal
	lastUpdated float64 // ms timestamp of previous update
	started     bool
}

func newDetector() detector {
	return detector{gamma: 12.5}
}

// thresholds and adaptation gains from the reference implementation.
const (
	kUp          = 0.0087
	kDown        = 0.039
	gammaMin     = 6.0
	gammaMax     = 600.0
	overuseTime  = 10.0 // ms of sustained over-use before signalling
	maxAdaptStep = 100.0
)

// update consumes the accumulated offset T = min(numDeltas, 60)·m (ms), as
// in the reference detector, and returns the signal. nowMs is the
// measurement time in milliseconds.
func (d *detector) update(m, nowMs float64) Signal {
	dt := 0.0
	if d.started {
		dt = nowMs - d.lastUpdated
		if dt < 0 {
			dt = 0
		} else if dt > maxAdaptStep {
			dt = maxAdaptStep
		}
	}
	d.started = true
	d.lastUpdated = nowMs

	signal := SignalNormal
	switch {
	case m > d.gamma:
		d.overuseFor += dt
		if d.overuseFor >= overuseTime && m >= d.prevM {
			signal = SignalOveruse
		} else if d.lastSignal == SignalOveruse {
			signal = SignalOveruse
		}
	case m < -d.gamma:
		d.overuseFor = 0
		signal = SignalUnderuse
	default:
		d.overuseFor = 0
	}

	// Threshold adaptation: track |m| slowly downward, quickly upward, but
	// freeze when |m| is far outside the threshold (protects against route
	// changes).
	am := math.Abs(m)
	if am <= d.gamma+15 {
		k := kDown
		if am > d.gamma {
			k = kUp
		}
		d.gamma += dt * k * (am - d.gamma)
		if d.gamma < gammaMin {
			d.gamma = gammaMin
		} else if d.gamma > gammaMax {
			d.gamma = gammaMax
		}
	}

	d.prevM = m
	d.lastSignal = signal
	return signal
}
