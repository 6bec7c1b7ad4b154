// Package video models the paper's GStreamer/x264 pipeline: a
// rate-controlled H.264-style encoder producing 30 FPS full-HD frames with
// GOP structure, the sender that packetizes and paces them under a
// congestion controller, the receiving jitter buffer and player that
// produce the paper's video metrics (FPS, playback latency, stalls), and an
// SSIM model mapping encoder rate and loss artifacts to frame quality.
package video

import (
	"math"
	"math/rand"
	"time"

	"rpivideo/internal/cc"
)

// EncoderConfig parameterizes the encoder model. The target is clamped to
// the paper's encoder range, cc.MinRate to cc.MaxRate.
type EncoderConfig struct {
	// FPS is the source frame rate (30 in the campaign).
	FPS int
}

// DefaultEncoderConfig returns the campaign encoder parameters.
func DefaultEncoderConfig() EncoderConfig {
	return EncoderConfig{FPS: 30}
}

const (
	// gopFrames is the keyframe interval in frames (one I-frame per second
	// at 30 FPS).
	gopFrames = 30
	// iFrameRatio is the size of an I-frame relative to a P-frame.
	iFrameRatio = 4
	// complexitySigma is the log-normal frame-size noise from scene detail
	// and motion (the source video "contains considerable detail and
	// motion").
	complexitySigma = 0.18
	// rateTau is how quickly the encoder's effective rate tracks the
	// requested target. The campaign's x264 wrapper applied rate changes
	// with noticeable latency — the mechanism behind §4.2.1's FPS dips:
	// frames already encoded (and still being encoded) at the old bitrate
	// must drain at the decreased send rate.
	rateTau = 500 * time.Millisecond
)

// Frame is one encoded video frame.
type Frame struct {
	Num        uint32
	Keyframe   bool
	Size       int // encoded bytes
	EncodeTime time.Duration
	// Rate is the effective encoder rate the frame was encoded at; the
	// SSIM model derives the quality ceiling from it.
	Rate float64
	// Complexity is the scene-complexity multiplier applied to this frame.
	Complexity float64
}

// Encoder produces frames at a requested target bitrate.
type Encoder struct {
	cfg EncoderConfig
	rng *rand.Rand

	target   float64 // requested rate
	rate     float64 // effective rate (lags the target)
	lastTick time.Duration
	num      uint32
	gopPos   int  // position within the current GOP (0 = keyframe)
	forceKey bool // a keyframe request restarts the GOP on the next frame
}

// NewEncoder returns an encoder starting at the given target rate.
func NewEncoder(cfg EncoderConfig, initialRate float64, rng *rand.Rand) *Encoder {
	e := &Encoder{cfg: cfg, rng: rng, target: initialRate, rate: initialRate}
	e.clamp()
	return e
}

func (e *Encoder) clamp() {
	if e.target < cc.MinRate {
		e.target = cc.MinRate
	} else if e.target > cc.MaxRate {
		e.target = cc.MaxRate
	}
}

// SetTarget requests a new encoder bitrate; the effective rate converges
// within rateTau.
func (e *Encoder) SetTarget(bitsPerSecond float64) {
	e.target = bitsPerSecond
	e.clamp()
}

// ForceKeyframe makes the next encoded frame an I-frame and restarts the
// GOP phase — the encoder's response to a PLI-style keyframe request after
// the receiver lost decodable continuity.
func (e *Encoder) ForceKeyframe() { e.forceKey = true }

// NextFrame encodes the next frame at time now. Callers invoke it once per
// frame interval.
func (e *Encoder) NextFrame(now time.Duration) Frame {
	// Track the target with a first-order lag.
	dt := (now - e.lastTick).Seconds()
	e.lastTick = now
	a := dt / rateTau.Seconds()
	if a > 1 {
		a = 1
	}
	e.rate += (e.target - e.rate) * a

	if e.forceKey {
		e.forceKey = false
		e.gopPos = 0
	}
	key := e.gopPos == 0
	e.gopPos++
	if e.gopPos >= gopFrames {
		e.gopPos = 0
	}
	// Per-frame byte budget: the GOP average equals rate/FPS/8 bytes, with
	// I-frames iFrameRatio× the size of P-frames.
	avg := e.rate / float64(e.cfg.FPS) / 8
	pSize := avg * gopFrames / (gopFrames - 1 + iFrameRatio)
	size := pSize
	if key {
		size = pSize * iFrameRatio
	}
	complexity := math.Exp(e.rng.NormFloat64() * complexitySigma)
	size *= complexity

	f := Frame{
		Num:        e.num,
		Keyframe:   key,
		Size:       int(size),
		EncodeTime: now,
		Rate:       e.rate,
		Complexity: complexity,
	}
	if f.Size < 200 {
		f.Size = 200
	}
	e.num++
	return f
}
