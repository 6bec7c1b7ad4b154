package gcc

import "rpivideo/internal/ring"

// trendline is the delay-gradient estimator modern WebRTC uses instead of
// the Kalman filter the paper-era GCC shipped: a least-squares slope of the
// smoothed accumulated delay over arrival time, across a sliding window of
// packet-group samples. The slope (dimensionless, ms of queue growth per ms
// of wall time) is scaled by the threshold gain and the accumulated-delta
// count before hitting the same adaptive-threshold over-use detector.
//
// Implementing both estimators lets the estimator ablation compare the 2016
// design the paper measured against today's default.
type trendline struct {
	window    int
	smoothing float64

	accumulated float64
	smoothed    float64
	firstSet    bool
	firstMs     float64

	// the last window (arrival-ms-since-first, smoothed-delay) samples
	samples ring.Queue[trendSample]
}

type trendSample struct{ t, d float64 }

// trendlineGain scales the fitted slope before threshold comparison, as in
// the reference implementation.
const trendlineGain = 4.0

// reset makes t a new trendline on the window it grew, emptied.
func (t *trendline) reset() {
	*t = trendline{window: 20, smoothing: 0.9, samples: t.samples}
	t.samples.Truncate(0)
}

// update feeds one inter-group delay variation d (ms) observed at
// arrivalMs, returning the scaled trend estimate (comparable to the Kalman
// gradient in ms).
func (t *trendline) update(d, arrivalMs float64) float64 {
	if !t.firstSet {
		t.firstSet = true
		t.firstMs = arrivalMs
	}
	t.accumulated += d
	t.smoothed = t.smoothing*t.smoothed + (1-t.smoothing)*t.accumulated

	t.samples.Push(trendSample{t: arrivalMs - t.firstMs, d: t.smoothed})
	if t.samples.Len() > t.window {
		t.samples.Pop()
	}
	if t.samples.Len() < t.window {
		return 0
	}
	return t.slope() * trendlineGain
}

// slope returns the least-squares slope of delay over time.
func (t *trendline) slope() float64 {
	n := t.samples.Len()
	var sumX, sumY float64
	for i := 0; i < n; i++ {
		s := t.samples.At(i)
		sumX += s.t
		sumY += s.d
	}
	meanX, meanY := sumX/float64(n), sumY/float64(n)
	var num, den float64
	for i := 0; i < n; i++ {
		s := t.samples.At(i)
		dx := s.t - meanX
		num += dx * (s.d - meanY)
		den += dx * dx
	}
	if den == 0 {
		return 0
	}
	return num / den
}
