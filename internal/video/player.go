package video

import (
	"time"

	"rpivideo/internal/metrics"
	"rpivideo/internal/obs"
	"rpivideo/internal/rtp"
	"rpivideo/internal/sim"
)

// PlayerConfig parameterizes the receiving pipeline: GStreamer's RTP jitter
// buffer plus the playback-rate adaptation the paper describes in §4.2.2
// and Appendix A.4.
type PlayerConfig struct {
	// JitterBuffer is the rtpjitterbuffer latency: a frame becomes due
	// this long after its first packet arrives (150 ms in the campaign).
	JitterBuffer time.Duration
	// DropOnLatency, when set, drops buffered frames older than
	// DropThreshold instead of playing them late (the rtpjitterbuffer
	// "drop-on-latency" property, Appendix A.4).
	DropOnLatency bool
	DropThreshold time.Duration
	// LatchQuirk reproduces the playback-latency plateaus the paper
	// observed with SCReAM in the well-provisioned urban cell (§4.2.2):
	// above latchRate incoming bits/s the buffer's catch-up stops engaging
	// and elevated latency latches until frame skips cut it down. The
	// paper suspected the rtpjitterbuffer and could not isolate the root
	// cause; this reproduces the symptom under the same conditions
	// (SCReAM, high bitrate) and is off by default.
	LatchQuirk bool
	// KeyframeRecovery arms the §5 error-concealment recovery model:
	// skipped frames leave the decoder predicting from a stale reference,
	// so decoded frames score a reduced SSIM until the next keyframe
	// plays, and the player issues a rate-limited KeyframeRequest (PLI
	// semantics) so the sender can cut the propagation short. Off by
	// default to leave the calibrated campaign results untouched.
	KeyframeRecovery bool
}

const (
	// PlaybackFPS is the nominal playback rate.
	PlaybackFPS = 30
	// stallThreshold classifies an inter-frame playback gap as a stall
	// (≈300 ms, the RP latency requirement).
	stallThreshold = 300 * time.Millisecond
	// maxFrameLoss is the largest fraction of a frame's packets the
	// decoder conceals; beyond it the frame is not decodable and is
	// skipped.
	maxFrameLoss = 0.5
	// slowdownFactor stretches playback when the buffer runs low (the
	// proactive rate reduction of Appendix A.4).
	slowdownFactor = 1.25
	// catchupFactor compresses playback when the buffer is comfortable
	// again, cutting elevated playback latency back down.
	catchupFactor = 0.75
	// giveUpAfter abandons a frame whose remaining packets have not
	// arrived this long after it became due.
	giveUpAfter = 250 * time.Millisecond
	// latchRate is the incoming rate in bits/s above which LatchQuirk
	// suppresses catch-up.
	latchRate = 12e6
)

// keyframeRequestInterval rate-limits KeyframeRequest.
const keyframeRequestInterval = 500 * time.Millisecond

// errorPropagationSSIM scales decoded-frame SSIM while the decoder's
// reference is stale (after a skip, before the next keyframe).
const errorPropagationSSIM = 0.6

// DefaultPlayerConfig returns the campaign player parameters.
func DefaultPlayerConfig() PlayerConfig {
	return PlayerConfig{JitterBuffer: 150 * time.Millisecond}
}

// PlayedFrame is one frame that reached the screen (or failed to).
type PlayedFrame struct {
	Num      uint32
	PlayedAt time.Duration
	// Latency is the playback latency: play time minus encode time. Zero
	// for skipped frames.
	Latency time.Duration
	// SSIM is the frame quality score (0 for skipped frames).
	SSIM float64
	// Skipped marks frames that were never decoded.
	Skipped bool
}

// Stall is one playback interruption longer than the stall threshold.
type Stall struct {
	Duration time.Duration
}

// Player is the receiving pipeline: depacketizer → jitter buffer → paced
// playback with quality scoring.
type Player struct {
	cfg  PlayerConfig
	sim  *sim.Simulator
	ssim *SSIMModel
	// encoding resolves a frame number to its encoder rate/complexity (fed
	// from the sender's registry; out-of-band in the simulator).
	encoding func(num uint32) (rate, complexity float64, ok bool)

	depkt rtp.Depacketizer

	// KeyframeRequest, when set with cfg.KeyframeRecovery, is invoked
	// (rate-limited) whenever a frame is skipped while decodable
	// continuity is broken — the receiver's PLI.
	KeyframeRequest func()
	// KeyframeRequests counts issued requests.
	KeyframeRequests int
	needKeyframe     bool
	lastKFRequest    time.Duration
	haveKFRequest    bool

	started      bool
	nextPlay     uint32 // next frame number to play
	highestSeen  uint32 // highest frame number with any packet
	lastPlayedAt time.Duration
	everPlayed   bool
	playClock    time.Duration // earliest time the next frame may play

	// Outputs. FramesPlayed and FramesSkipped count the frames recorded;
	// OnFrame, when set, observes each one as it is recorded (nil by
	// default: the player keeps no per-frame list).
	FramesPlayed  int
	FramesSkipped int
	OnFrame       func(PlayedFrame)
	Stalls        []Stall
	fpsBins       map[int]int
	// latencies and scores are the playback-latency (ms, played frames)
	// and SSIM (every frame, skipped ones scoring the skip score)
	// distributions, filled as frames are recorded: the player's own
	// (sketches) unless RecordInto points them elsewhere.
	latencies, scores *metrics.Sketch
	sketches          [2]metrics.Sketch
	arrivals          int
	bytesRecv         int
	// PacketsRepaired counts retransmitted packets ingested into frames;
	// FramesRepaired counts played frames that needed at least one.
	PacketsRepaired int
	FramesRepaired  int
	// lastArrivalAt timestamps the most recent media ingest, so the PLI
	// rate limiter can tell a live stream from one resuming after a
	// blackout.
	lastArrivalAt time.Duration

	// rateWindow tracks received bytes over the trailing seconds for the
	// latch quirk's rate estimate.
	rateBins [4]int
	rateSec  int

	// trace emits frame-play/frame-skip/stall events (nil = disabled;
	// purely observational).
	trace *obs.Tracer

	task *sim.Task
}

// NewPlayer returns a player. encoding resolves frame numbers to their
// encoder parameters for the SSIM model.
func NewPlayer(s *sim.Simulator, cfg PlayerConfig, ssim *SSIMModel, encoding func(uint32) (float64, float64, bool)) *Player {
	p := new(Player)
	p.Reset(s, cfg, ssim, encoding)
	return p
}

// Reset makes p the player NewPlayer returns, on the frame ring and
// per-second FPS bins it grew, emptied, and registers its playback loop on
// s as NewPlayer does. What it handed out (Stalls, the sketches of
// RecordInto) it lets go.
func (p *Player) Reset(s *sim.Simulator, cfg PlayerConfig, ssim *SSIMModel, encoding func(uint32) (float64, float64, bool)) {
	if ssim == nil {
		ssim = DefaultSSIMModel()
	}
	*p = Player{cfg: cfg, sim: s, ssim: ssim, encoding: encoding, depkt: p.depkt, fpsBins: p.fpsBins}
	p.depkt.Reset()
	if p.fpsBins == nil {
		p.fpsBins = make(map[int]int)
	}
	clear(p.fpsBins)
	p.latencies, p.scores = &p.sketches[0], &p.sketches[1]
	p.task = s.Every(0, 5*time.Millisecond, p.pump)
}

// RecordInto has the player fill latency and ssim, in place of sketches
// of its own, with its playback-latency distribution over played frames in
// milliseconds (Fig. 7c) and its SSIM distribution over all frames, skipped
// ones scoring 0 (Fig. 7b).
// Call it on a new player, before its first packet.
func (p *Player) RecordInto(latency, ssim *metrics.Sketch) {
	p.latencies, p.scores = latency, ssim
}

// SetTracer attaches an event tracer (nil disables tracing).
func (p *Player) SetTracer(tr *obs.Tracer) { p.trace = tr }

// Stop halts the playback loop.
func (p *Player) Stop() {
	if p.task != nil {
		p.task.Stop()
	}
}

// BytesReceived returns the media bytes received so far.
func (p *Player) BytesReceived() int { return p.bytesRecv }

// PacketsReceived returns the media packets received so far.
func (p *Player) PacketsReceived() int { return p.arrivals }

// OnPacket ingests one media packet from the downstream of the link. The
// packet is lent for the call: the player keeps nothing of it, and the
// caller may release it once OnPacket returns.
func (p *Player) OnPacket(pkt *rtp.Packet, at time.Duration) {
	p.ingest(pkt, at, false)
}

// OnRepairedPacket ingests a media packet recovered by the repair layer
// (an unwrapped RTX). The frame it lands in is marked repaired, so skip
// and stall accounting can distinguish "repaired" from "lost".
func (p *Player) OnRepairedPacket(pkt *rtp.Packet, at time.Duration) {
	p.ingest(pkt, at, true)
}

func (p *Player) ingest(pkt *rtp.Packet, at time.Duration, repaired bool) {
	meta, err := rtp.ParsePacketMeta(pkt.Payload)
	if err != nil {
		return // not a media packet
	}
	// A packet of a frame already played or skipped (a late original, or an
	// RTX landing after the skip) is counted below but gets no reassembly
	// state: nothing would ever delete it.
	if !p.started || meta.FrameNum >= p.nextPlay {
		fs, err := p.depkt.Push(pkt, at)
		if err != nil {
			return // a duplicate slot
		}
		if repaired {
			fs.Repaired = true
		}
	}
	if p.cfg.KeyframeRecovery && p.haveKFRequest && at-p.lastArrivalAt > keyframeRequestInterval {
		// The stream is resuming after a dead span longer than the limiter
		// window. Any request issued into that blackout was flushed with
		// the downlink backlog, so a stale limiter must not delay the
		// first post-recovery keyframe request.
		p.haveKFRequest = false
	}
	p.lastArrivalAt = at
	if repaired {
		p.PacketsRepaired++
	}
	p.arrivals++
	p.bytesRecv += pkt.MarshalSize()
	sec := int(at / time.Second)
	if sec != p.rateSec {
		for s := p.rateSec + 1; s <= sec && s-p.rateSec <= 4; s++ {
			p.rateBins[s%4] = 0
		}
		p.rateSec = sec
	}
	p.rateBins[sec%4] += pkt.MarshalSize()
	if !p.started {
		p.started = true
		p.nextPlay = meta.FrameNum
		p.highestSeen = meta.FrameNum
	} else if meta.FrameNum > p.highestSeen {
		p.highestSeen = meta.FrameNum
	}
}

// bufferedAhead counts complete frames buffered beyond the next one — the
// occupancy signal for the playback-rate adaptation.
func (p *Player) bufferedAhead() int {
	n := 0
	for num := p.nextPlay + 1; num <= p.highestSeen && num < p.nextPlay+10; num++ {
		if fs := p.depkt.Frame(num); fs != nil && fs.Complete() {
			n++
		}
	}
	return n
}

// pump advances playback.
func (p *Player) pump() {
	if !p.started {
		return
	}
	now := p.sim.Now()
	for {
		if now < p.playClock {
			return
		}
		fs := p.depkt.Frame(p.nextPlay)
		switch {
		case fs != nil && fs.Complete():
			due := fs.FirstArrival + p.cfg.JitterBuffer
			if now < due {
				return // buffered, waiting for its slot
			}
			if p.cfg.DropOnLatency && p.cfg.DropThreshold > 0 && now-fs.FirstArrival > p.cfg.DropThreshold {
				p.skip(now, "stale")
				continue
			}
			p.play(now, fs)
			continue
		case fs != nil:
			// Partial frame: wait until due + grace, then decode damaged
			// or skip.
			deadline := fs.FirstArrival + p.cfg.JitterBuffer + giveUpAfter
			if now < deadline {
				if p.frameAbandoned(fs) {
					// A later frame is complete; this one's missing
					// packets were lost. Decide now.
					p.decodePartial(now, fs)
					continue
				}
				return
			}
			p.decodePartial(now, fs)
			continue
		default:
			// No packet of this frame at all. Skip once a later frame has
			// been waiting long enough that this one cannot appear.
			if p.highestSeen > p.nextPlay {
				later := p.depkt.Frame(p.nextPlay + 1)
				if later != nil && now >= later.FirstArrival+p.cfg.JitterBuffer {
					p.skip(now, "missing")
					continue
				}
				// Also bail out if a much later frame exists (whole-frame
				// gap from a queue discard at the sender).
				if p.highestSeen > p.nextPlay+3 {
					p.skip(now, "gap")
					continue
				}
			}
			return
		}
	}
}

// frameAbandoned reports whether a partial frame can be declared final
// early because newer frames already completed behind it.
func (p *Player) frameAbandoned(fs *rtp.FrameState) bool {
	later := p.depkt.Frame(fs.Num + 1)
	return later != nil && later.Complete() && p.sim.Now() > fs.LastArrival+50*time.Millisecond
}

// decodePartial plays a damaged frame if the decoder can conceal the loss,
// otherwise skips it.
func (p *Player) decodePartial(now time.Duration, fs *rtp.FrameState) {
	if fs.LossFraction() <= maxFrameLoss {
		p.play(now, fs)
		return
	}
	p.skip(now, "undecodable")
}

// play emits one frame.
func (p *Player) play(now time.Duration, fs *rtp.FrameState) {
	rate, complexity, ok := float64(0), float64(1), false
	if p.encoding != nil {
		rate, complexity, ok = p.encoding(fs.Num)
	}
	if !ok {
		rate, complexity = 2e6, 1
	}
	score := p.ssim.Score(rate, complexity, fs.LossFraction(), fs.Keyframe)
	if p.cfg.KeyframeRecovery && p.needKeyframe {
		if fs.Keyframe {
			p.needKeyframe = false
		} else {
			// Decoder predicting from a stale reference: the error from the
			// skipped frame propagates through every inter frame until an
			// intra refresh arrives.
			score *= errorPropagationSSIM
			p.maybeRequestKeyframe(now)
		}
	}
	pf := PlayedFrame{
		Num:      fs.Num,
		PlayedAt: now,
		Latency:  now - fs.EncodeTime,
		SSIM:     score,
	}
	if fs.Repaired {
		p.FramesRepaired++
	}
	p.record(pf, now)
	p.depkt.Delete(fs.Num)
	p.advance(now)
}

// skip abandons the current frame (never decoded, SSIM 0).
func (p *Player) skip(now time.Duration, _ string) {
	p.record(PlayedFrame{
		Num:      p.nextPlay,
		PlayedAt: now,
		SSIM:     p.ssim.Skip(),
		Skipped:  true,
	}, now)
	if p.cfg.KeyframeRecovery {
		p.needKeyframe = true
		p.maybeRequestKeyframe(now)
	}
	p.depkt.Delete(p.nextPlay)
	// Skipping does not consume a playback slot: the next frame may play
	// immediately (the §3.2 observation that playback latency can drop
	// without an FPS increase when frames are skipped).
	p.nextPlay++
}

// maybeRequestKeyframe fires the KeyframeRequest hook, rate-limited so a
// burst of skips (one outage) yields one request per interval.
func (p *Player) maybeRequestKeyframe(now time.Duration) {
	if p.KeyframeRequest == nil {
		return
	}
	if p.haveKFRequest && now-p.lastKFRequest < keyframeRequestInterval {
		return
	}
	p.haveKFRequest = true
	p.lastKFRequest = now
	p.KeyframeRequests++
	p.KeyframeRequest()
}

// record counts the frame and does the sketch and stall/FPS bookkeeping.
func (p *Player) record(pf PlayedFrame, now time.Duration) {
	if p.OnFrame != nil {
		p.OnFrame(pf)
	}
	p.scores.Add(pf.SSIM)
	if pf.Skipped {
		p.FramesSkipped++
		if p.trace != nil {
			p.trace.Emit(obs.Event{T: now, Kind: obs.KindFrameSkip, Seq: int64(pf.Num)})
		}
		return
	}
	if p.everPlayed {
		if gap := now - p.lastPlayedAt; gap > stallThreshold {
			p.Stalls = append(p.Stalls, Stall{Duration: gap})
			if p.trace != nil {
				p.trace.Emit(obs.Event{T: now, Kind: obs.KindStall,
					V: float64(gap) / float64(time.Millisecond)})
			}
		}
	}
	p.FramesPlayed++
	p.everPlayed = true
	p.lastPlayedAt = now
	p.fpsBins[int(now/time.Second)]++
	p.latencies.Add(float64(pf.Latency) / float64(time.Millisecond))
	if p.trace != nil {
		p.trace.Emit(obs.Event{T: now, Kind: obs.KindFramePlay, Seq: int64(pf.Num),
			Aux: int64(pf.Latency / time.Millisecond), V: pf.SSIM})
	}
}

// advance moves the playback clock, applying the proactive slowdown when
// the buffer is starved and catching back up when it is comfortable.
func (p *Player) advance(now time.Duration) {
	p.nextPlay++
	interval := time.Second / PlaybackFPS
	ahead := p.bufferedAhead()
	factor := 1.0
	switch {
	case ahead == 0:
		factor = slowdownFactor
	case ahead >= 2:
		factor = catchupFactor
		if p.latched() {
			// The latched buffer barely recovers: elevated latency decays
			// an order of magnitude slower than normal catch-up.
			factor = 1 - (1-catchupFactor)/10
		}
	}
	p.playClock = now + time.Duration(float64(interval)*factor)
}

// latched reports whether the latch quirk suppresses catch-up: active only
// when enabled and the incoming rate exceeds the latch threshold.
func (p *Player) latched() bool {
	if !p.cfg.LatchQuirk {
		return false
	}
	bytes := 0
	for _, b := range p.rateBins {
		bytes += b
	}
	return float64(bytes)*8/4 > latchRate
}

// AddFPS adds to d the distribution of frames played per second over the
// given span (Fig. 7a's metric): one sample per second.
func (p *Player) AddFPS(d *metrics.Sketch, span time.Duration) {
	secs := int(span / time.Second)
	for s := 0; s < secs; s++ {
		d.Add(float64(p.fpsBins[s]))
	}
}

// StallsPerMinute returns the stall rate over the given span (§4.2.1).
func (p *Player) StallsPerMinute(span time.Duration) float64 {
	if span <= 0 {
		return 0
	}
	return float64(len(p.Stalls)) / span.Minutes()
}
