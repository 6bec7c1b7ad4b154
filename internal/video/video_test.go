package video

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"rpivideo/internal/cc"
	"rpivideo/internal/metrics"
	"rpivideo/internal/obs"
	"rpivideo/internal/rtp"
	"rpivideo/internal/sim"
)

func TestEncoderMeetsTargetBitrate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := NewEncoder(DefaultEncoderConfig(), 8e6, rng)
	total := 0
	const frames = 900 // 30 s
	for i := 0; i < frames; i++ {
		f := e.NextFrame(time.Duration(i) * 33333 * time.Microsecond)
		total += f.Size
	}
	rate := float64(total*8) / 30
	if rate < 7e6 || rate > 9e6 {
		t.Errorf("encoded rate = %.2f Mbps, want ≈8", rate/1e6)
	}
}

func TestEncoderGOPStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := NewEncoder(DefaultEncoderConfig(), 8e6, rng)
	var iSizes, pSizes []int
	for i := 0; i < 120; i++ {
		f := e.NextFrame(time.Duration(i) * 33333 * time.Microsecond)
		if f.Keyframe != (i%30 == 0) {
			t.Fatalf("frame %d keyframe = %v", i, f.Keyframe)
		}
		// The frame's complexity multiplier divided out: its size before
		// scene-detail noise.
		size := int(float64(f.Size) / f.Complexity)
		if f.Keyframe {
			iSizes = append(iSizes, size)
		} else {
			pSizes = append(pSizes, size)
		}
	}
	meanI, meanP := mean(iSizes), mean(pSizes)
	if ratio := meanI / meanP; ratio < 3.5 || ratio > 4.5 {
		t.Errorf("I/P size ratio = %.2f, want ≈4", ratio)
	}
}

func mean(xs []int) float64 {
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

func TestEncoderRateLag(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := NewEncoder(DefaultEncoderConfig(), 2e6, rng)
	e.NextFrame(0)
	e.SetTarget(25e6)
	f := e.NextFrame(33 * time.Millisecond)
	if f.Rate > 15e6 {
		t.Errorf("effective rate jumped to %.1f Mbps one frame after a target change", f.Rate/1e6)
	}
	for i := 2; i < 40; i++ {
		f = e.NextFrame(time.Duration(i) * 33 * time.Millisecond)
	}
	if f.Rate < 20e6 {
		t.Errorf("effective rate = %.1f Mbps after 1.3 s, should have converged toward 25", f.Rate/1e6)
	}
}

func TestEncoderClampsTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e := NewEncoder(DefaultEncoderConfig(), 8e6, rng)
	e.SetTarget(100e6)
	if e.target != 25e6 {
		t.Errorf("target clamped to %v, want 25e6", e.target)
	}
	e.SetTarget(0)
	if e.target != 2e6 {
		t.Errorf("target clamped to %v, want 2e6", e.target)
	}
}

func TestSSIMRateDependence(t *testing.T) {
	m := DefaultSSIMModel()
	at2 := m.Score(2e6, 1, 0, true)
	at8 := m.Score(8e6, 1, 0, true)
	at25 := m.Score(25e6, 1, 0, true)
	if !(at2 < at8 && at8 < at25) {
		t.Errorf("SSIM not monotone in rate: %v %v %v", at2, at8, at25)
	}
	// Calibration bands (Fig. 7b: urban ≥0.9 for 90 %, rural ≈0.8+).
	if at25 < 0.93 || at25 > 1 {
		t.Errorf("SSIM at 25 Mbps = %v, want ≈0.96+", at25)
	}
	if at8 < 0.85 || at8 > 0.95 {
		t.Errorf("SSIM at 8 Mbps = %v, want ≈0.89", at8)
	}
	if at2 < 0.6 || at2 > 0.85 {
		t.Errorf("SSIM at 2 Mbps = %v, want ≈0.74", at2)
	}
}

func TestSSIMLossArtifactsPropagate(t *testing.T) {
	m := DefaultSSIMModel()
	clean := m.Score(8e6, 1, 0, true)
	damaged := m.Score(8e6, 1, 0.3, false)
	if damaged >= clean {
		t.Errorf("loss did not reduce SSIM: %v vs %v", damaged, clean)
	}
	// Damage persists into the following loss-free P-frames...
	next := m.Score(8e6, 1, 0, false)
	if next >= clean-0.01 {
		t.Errorf("reference damage did not propagate: %v vs clean %v", next, clean)
	}
	// ...and a keyframe resets it.
	fresh := m.Score(8e6, 1, 0, true)
	if math.Abs(fresh-clean) > 1e-9 {
		t.Errorf("keyframe did not reset damage: %v vs %v", fresh, clean)
	}
}

func TestSSIMSkipScoresZero(t *testing.T) {
	m := DefaultSSIMModel()
	if got := m.Skip(); got != 0 {
		t.Errorf("Skip = %v, want 0", got)
	}
	if m.damage < 0.5 {
		t.Errorf("skip should damage the reference chain, damage = %v", m.damage)
	}
}

// Property: SSIM stays in [0, 1] for arbitrary inputs.
func TestPropertySSIMBounds(t *testing.T) {
	f := func(rate uint32, loss, complexity float64, key bool) bool {
		m := DefaultSSIMModel()
		l := math.Mod(math.Abs(loss), 1)
		c := math.Mod(math.Abs(complexity), 3)
		s := m.Score(float64(rate%30_000_000), c, l, key)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// pipe wires a sender to a player over a constant-delay lossless path,
// optionally dropping packets via filter (return false to drop).
func pipe(s *sim.Simulator, ctrl cc.Controller, delay time.Duration, filter func(p *rtp.Packet) bool) (*Sender, *Player) {
	snd := NewSender(s, DefaultSenderConfig(), ctrl, s.Stream("enc"))
	pl := NewPlayer(s, DefaultPlayerConfig(), DefaultSSIMModel(), snd.FrameEncoding)
	snd.Transmit = func(p *rtp.Packet, size int) {
		if filter != nil && !filter(p) {
			return
		}
		s.After(delay, func() { pl.OnPacket(p, s.Now()) })
	}
	return snd, pl
}

// recordFrames has pl keep every frame it records, in order, and returns
// that list.
func recordFrames(pl *Player) *[]PlayedFrame {
	frames := new([]PlayedFrame)
	pl.OnFrame = func(f PlayedFrame) { *frames = append(*frames, f) }
	return frames
}

func TestEndToEndCleanPath(t *testing.T) {
	s := sim.New(1)
	ctrl := &cc.Static{Rate: 8e6}
	snd, pl := pipe(s, ctrl, 50*time.Millisecond, nil)
	snd.Start()
	const span = 30 * time.Second
	s.RunUntil(span)
	snd.Stop()
	pl.Stop()

	var fps metrics.Sketch
	pl.AddFPS(&fps, span)
	if fps.Median() < 29 || fps.Median() > 31 {
		t.Errorf("median FPS = %v, want 30", fps.Median())
	}
	lat := pl.latencies
	// 50 ms path + 150 ms jitter buffer + pacing slack.
	if lat.Median() < 180 || lat.Median() > 300 {
		t.Errorf("median playback latency = %.0f ms, want ≈200–250", lat.Median())
	}
	if got := pl.StallsPerMinute(span); got != 0 {
		t.Errorf("stall rate on a clean path = %v/min", got)
	}
	ssim := pl.scores
	if ssim.Quantile(0.05) < 0.80 {
		t.Errorf("P5 SSIM = %v on a clean 8 Mbps path", ssim.Quantile(0.05))
	}
	// Packets sent in the final 50 ms are still in flight at the cutoff.
	if snd.PacketsSent == 0 || pl.PacketsReceived() < snd.PacketsSent-100 {
		t.Errorf("packets sent %d received %d", snd.PacketsSent, pl.PacketsReceived())
	}
}

func TestJitterBufferDelaysPlayback(t *testing.T) {
	s := sim.New(2)
	ctrl := &cc.Static{Rate: 8e6}
	snd, pl := pipe(s, ctrl, 10*time.Millisecond, nil)
	frames := recordFrames(pl)
	snd.Start()
	s.RunUntil(5 * time.Second)
	if len(*frames) == 0 {
		t.Fatal("no frames played")
	}
	for _, f := range (*frames)[:10] {
		if f.Skipped {
			continue
		}
		if f.Latency < 150*time.Millisecond {
			t.Errorf("frame %d latency %v below the 150 ms jitter buffer", f.Num, f.Latency)
		}
	}
}

func TestPacketLossDamagesOrSkipsFrames(t *testing.T) {
	s := sim.New(3)
	ctrl := &cc.Static{Rate: 8e6}
	rng := rand.New(rand.NewSource(7))
	drops := 0
	snd, pl := pipe(s, ctrl, 50*time.Millisecond, func(p *rtp.Packet) bool {
		if rng.Float64() < 0.03 { // 3 % loss
			drops++
			return false
		}
		return true
	})
	snd.Start()
	const span = 30 * time.Second
	s.RunUntil(span)
	if drops == 0 {
		t.Fatal("filter dropped nothing")
	}
	ssim := pl.scores
	clean := DefaultSSIMModel().Score(8e6, 1, 0, true)
	if ssim.Quantile(0.25) >= clean {
		t.Errorf("Q1 SSIM %v shows no loss damage (clean = %v)", ssim.Quantile(0.25), clean)
	}
}

func TestBurstLossSkipsFrames(t *testing.T) {
	s := sim.New(13)
	ctrl := &cc.Static{Rate: 8e6}
	// Periodically drop everything for 200 ms: whole frames go missing and
	// the player must skip them (SSIM 0).
	snd, pl := pipe(s, ctrl, 50*time.Millisecond, func(*rtp.Packet) bool {
		return s.Now()%(2*time.Second) > 200*time.Millisecond
	})
	frames := recordFrames(pl)
	snd.Start()
	s.RunUntil(20 * time.Second)
	skipped := 0
	for _, f := range *frames {
		if f.Skipped {
			skipped++
		}
	}
	// The counts are the observed frames'.
	if pl.FramesSkipped != skipped || pl.FramesPlayed != len(*frames)-skipped {
		t.Errorf("counted %d played and %d skipped; %d frames observed, %d of them skipped",
			pl.FramesPlayed, pl.FramesSkipped, len(*frames), skipped)
	}
	if skipped < 10 {
		t.Errorf("only %d frames skipped under periodic 200 ms outages", skipped)
	}
}

func TestOutageCausesStall(t *testing.T) {
	s := sim.New(4)
	ctrl := &cc.Static{Rate: 8e6}
	blocked := false
	snd, pl := pipe(s, ctrl, 50*time.Millisecond, func(*rtp.Packet) bool { return !blocked })
	tr := obs.New(0)
	pl.SetTracer(tr)
	snd.Start()
	// Block the path entirely between t=10 s and t=11 s (a long handover).
	s.At(10*time.Second, func() { blocked = true })
	s.At(11*time.Second, func() { blocked = false })
	const span = 20 * time.Second
	s.RunUntil(span)
	if len(pl.Stalls) == 0 {
		t.Fatal("a 1 s outage must produce a stall")
	}
	// A traced stall ends at T and lasted V milliseconds.
	found := false
	for _, ev := range tr.Events() {
		gap := time.Duration(ev.V * float64(time.Millisecond))
		if start := ev.T - gap; ev.Kind == obs.KindStall && start > 9*time.Second && start < 12*time.Second && gap > 300*time.Millisecond {
			found = true
		}
	}
	if !found {
		t.Errorf("no stall traced near the outage: %+v", pl.Stalls)
	}
}

func TestPlaybackRateAdaptation(t *testing.T) {
	// White-box: a starved buffer stretches the playback clock (the
	// proactive slowdown of §4.2.2/A.4); a comfortable buffer compresses
	// it.
	s := sim.New(5)
	cfg := DefaultPlayerConfig()
	pl := NewPlayer(s, cfg, DefaultSSIMModel(), nil)
	s.RunUntil(10 * time.Second)
	interval := time.Second / PlaybackFPS

	// Empty buffer: slowdown.
	pl.nextPlay = 100
	pl.highestSeen = 100
	pl.advance(s.Now())
	if got := pl.playClock - s.Now(); got != time.Duration(float64(interval)*slowdownFactor) {
		t.Errorf("starved playback interval = %v, want %v × %v", got, interval, slowdownFactor)
	}

	// Comfortable buffer (3 complete frames ahead): catch-up.
	pk := rtp.NewPacketizer(1, 96, 1200)
	for num := uint32(101); num <= 104; num++ {
		for _, p := range pk.Packetize(rtp.FrameInfo{Num: num, Size: 400}) {
			pl.OnPacket(p, s.Now())
		}
	}
	pl.nextPlay = 100
	pl.advance(s.Now())
	if got := pl.playClock - s.Now(); got != time.Duration(float64(interval)*catchupFactor) {
		t.Errorf("comfortable playback interval = %v, want %v × %v", got, interval, catchupFactor)
	}
}

func TestDropOnLatencySkipsStaleFrames(t *testing.T) {
	s := sim.New(6)
	ctrl := &cc.Static{Rate: 8e6}
	snd := NewSender(s, DefaultSenderConfig(), ctrl, s.Stream("enc"))
	cfg := DefaultPlayerConfig()
	cfg.DropOnLatency = true
	cfg.DropThreshold = 200 * time.Millisecond
	pl := NewPlayer(s, cfg, DefaultSSIMModel(), snd.FrameEncoding)
	frames := recordFrames(pl)
	held := []*rtp.Packet{}
	holding := false
	snd.Transmit = func(p *rtp.Packet, size int) {
		if holding {
			held = append(held, p)
			return
		}
		s.After(30*time.Millisecond, func() { pl.OnPacket(p, s.Now()) })
	}
	snd.Start()
	// Hold 1.5 s of packets, then release them all at once: without
	// drop-on-latency they would all play late.
	s.At(5*time.Second, func() { holding = true })
	s.At(6500*time.Millisecond, func() {
		holding = false
		for _, p := range held {
			p := p
			pl.OnPacket(p, s.Now())
		}
	})
	s.RunUntil(12 * time.Second)
	skipped := 0
	for _, f := range *frames {
		if f.Skipped && f.PlayedAt > 6*time.Second && f.PlayedAt < 8*time.Second {
			skipped++
		}
	}
	if skipped < 10 {
		t.Errorf("drop-on-latency skipped only %d stale frames after the release", skipped)
	}
}

func TestSenderRecordsLookup(t *testing.T) {
	s := sim.New(8)
	ctrl := &cc.Static{Rate: 8e6}
	var sentPkts []*rtp.Packet
	snd := NewSender(s, DefaultSenderConfig(), ctrl, s.Stream("enc"))
	snd.Transmit = func(p *rtp.Packet, size int) { sentPkts = append(sentPkts, p) }
	snd.Start()
	s.RunUntil(time.Second)
	if len(sentPkts) == 0 {
		t.Fatal("nothing sent")
	}
	for _, p := range sentPkts {
		tseq, ok := p.Header.TransportSeq()
		if !ok {
			t.Fatal("packet without transport seq")
		}
		rec, ok := snd.LookupTransport(tseq)
		if !ok || rec.Seq != p.Header.SequenceNumber {
			t.Fatalf("transport lookup failed for %d", tseq)
		}
		if rec2, ok := snd.LookupSeq(p.Header.SequenceNumber); !ok || rec2.TransportSeq != tseq {
			t.Fatalf("seq lookup failed for %d", p.Header.SequenceNumber)
		}
	}
}

// TestSenderAckSeqMarksUntilResent: Acked reports a sequence number as
// acknowledged from AckSeq's first call until the number is sent anew —
// here after the 16-bit space wraps — and the mark costs the record no size.
func TestSenderAckSeqMarksUntilResent(t *testing.T) {
	if size := unsafe.Sizeof(SentRecord{}); size != 24 {
		t.Errorf("SentRecord is %d bytes, want 24", size)
	}
	s := sim.New(8)
	snd := NewSender(s, DefaultSenderConfig(), &cc.Static{Rate: 25e6}, s.Stream("enc"))
	var newest uint16
	snd.Transmit = func(p *rtp.Packet, size int) { newest = p.Header.SequenceNumber }
	snd.Start()
	s.RunUntil(time.Second)
	ack := func(seq uint16, wantOK, wantAgain bool) {
		t.Helper()
		again := snd.Acked(seq)
		rec, ok := snd.AckSeq(seq)
		if ok != wantOK || again != wantAgain || ok && rec.Seq != seq {
			t.Fatalf("Acked(%d) = %v, AckSeq = %+v, %v; want ok %v, again %v", seq, again, rec, ok, wantOK, wantAgain)
		}
	}
	ack(10, true, false)
	ack(10, true, true)
	ack(newest+1, false, false)      // not sent yet
	for snd.PacketsSent < 1<<16+11 { // sequence numbers start at 0: 10 is sent again
		s.RunUntil(s.Now() + time.Second)
	}
	ack(10, true, false)
}

func TestSenderHonorsWindowLimit(t *testing.T) {
	// A controller that blocks sending keeps packets queued; a Kick after
	// opening the window drains them.
	s := sim.New(9)
	ctrl := &gate{open: false, rate: 8e6}
	snd := NewSender(s, DefaultSenderConfig(), ctrl, s.Stream("enc"))
	sent := 0
	snd.Transmit = func(p *rtp.Packet, size int) { sent++ }
	snd.Start()
	s.RunUntil(time.Second)
	if sent != 0 {
		t.Fatalf("%d packets sent through a closed window", sent)
	}
	ctrl.open = true
	snd.Kick()
	s.RunUntil(1100 * time.Millisecond)
	if sent == 0 {
		t.Error("no packets sent after the window opened")
	}
}

// gate is a test controller with a manual send gate.
type gate struct {
	open bool
	rate float64
}

func (g *gate) OnPacketSent(cc.SentPacket)               {}
func (g *gate) OnFeedback(time.Duration, []cc.Ack)       {}
func (g *gate) TargetBitrate(time.Duration) float64      { return g.rate }
func (g *gate) PacingRate(time.Duration) float64         { return g.rate * 2 }
func (g *gate) CanSend(now time.Duration, size int) bool { return g.open }
func (g *gate) Name() string                             { return "gate" }
