package video

import "math"

// SSIMModel maps what the decoder sees to a structural-similarity score,
// substituting for the paper's frame-by-frame comparison of the received
// against the source video (§3.2). The paper's analysis uses SSIM only
// through two dependencies, which the model captures directly:
//
//   - the encoder bitrate bounds the achievable quality ("the SSIM is
//     closely correlated with the bitrate at which the encoder operates"),
//     and
//   - packet loss causes visual artifacts that persist through motion-
//     compensated prediction until an intra refresh ("the SSIM is also
//     sensitive to packet losses, which cause visual artifacts in the
//     output of the video decoder").
//
// A frame that is never played scores 0, as in the paper.
type SSIMModel struct {
	damage float64 // current propagated reference damage in [0, 1]
}

// The calibrated model's constants.
const (
	// ssimRateScale is the exponential quality constant (bits/s).
	// Calibrated so full-HD at 25 Mbps scores ≈0.96–0.99, 8 Mbps ≈0.89
	// and the 2 Mbps floor ≈0.74, consistent with Fig. 7b's urban/rural
	// bands.
	ssimRateScale = 7e6
	// ssimFloor and ssimCeiling bound the loss-free score.
	ssimFloor   = 0.10
	ssimCeiling = 0.999
	// artifactGain scales how strongly intra-frame packet loss corrupts
	// the frame.
	artifactGain = 3.5
	// concealmentDecay is the per-frame decay of propagated reference
	// damage (error concealment recovers slowly until a keyframe resets
	// it).
	concealmentDecay = 0.97
)

// DefaultSSIMModel returns the calibrated model.
func DefaultSSIMModel() *SSIMModel { return &SSIMModel{} }

// base returns the loss-free quality ceiling for a frame encoded at the
// given rate and complexity multiplier.
func (m *SSIMModel) base(rate, complexity float64) float64 {
	if complexity <= 0 {
		complexity = 1
	}
	q := ssimCeiling - 0.35*math.Exp(-rate/complexity/ssimRateScale)
	if q < ssimFloor {
		q = ssimFloor
	}
	return q
}

// Score returns the SSIM of one played frame and advances the reference-
// damage state. lossFrac is the fraction of the frame's packets missing at
// decode time; keyframe frames reset propagated damage before decoding.
func (m *SSIMModel) Score(rate, complexity, lossFrac float64, keyframe bool) float64 {
	if keyframe {
		m.damage = 0
	} else {
		m.damage *= concealmentDecay
	}
	if lossFrac > 0 {
		d := artifactGain * lossFrac
		if d > 1 {
			d = 1
		}
		if d > m.damage {
			m.damage = d
		}
	}
	s := m.base(rate, complexity) * (1 - m.damage)
	if s < 0 {
		s = 0
	}
	return s
}

// Skip records a frame that was never played (SSIM 0 in the paper's
// methodology) and propagates reference damage: the decoder freezes and
// subsequent prediction references are broken until a keyframe.
func (m *SSIMModel) Skip() float64 {
	if m.damage < 0.5 {
		m.damage = 0.5
	}
	return 0
}
