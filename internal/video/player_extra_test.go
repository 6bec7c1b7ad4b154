package video

import (
	"math/rand"
	"testing"
	"time"

	"rpivideo/internal/cc"
	"rpivideo/internal/rtp"
	"rpivideo/internal/sim"
)

func TestPlayerFPSDistCountsPerSecond(t *testing.T) {
	s := sim.New(1)
	ctrl := cc.NewStatic(8e6)
	snd, pl := pipe(s, ctrl, 40*time.Millisecond, nil)
	snd.Start()
	s.RunUntil(10 * time.Second)
	d := pl.FPSSketch(10 * time.Second)
	if d.N() != 10 {
		t.Fatalf("FPS samples = %d, want one per second", d.N())
	}
	// Steady state plays 30 FPS; the first second is short by the pipeline
	// warm-up.
	if d.Quantile(0.5) < 28 || d.Quantile(0.5) > 32 {
		t.Errorf("median FPS = %v", d.Quantile(0.5))
	}
}

func TestPlayerStallsPerMinuteZeroSpan(t *testing.T) {
	s := sim.New(2)
	pl := NewPlayer(s, DefaultPlayerConfig(), nil, nil)
	if got := pl.StallsPerMinute(0); got != 0 {
		t.Errorf("StallsPerMinute(0) = %v", got)
	}
}

func TestPlayerOutOfOrderPacketsWithinFrame(t *testing.T) {
	// Deliver each frame's packets in reverse order: reassembly must not
	// care, and playback must be intact.
	s := sim.New(3)
	ctrl := cc.NewStatic(8e6)
	snd := NewSender(s, DefaultSenderConfig(), ctrl, s.Stream("enc"))
	pl := NewPlayer(s, DefaultPlayerConfig(), DefaultSSIMModel(), snd.FrameEncoding)
	var batch []*rtp.Packet
	snd.Transmit = func(p *rtp.Packet, size int) {
		batch = append(batch, p)
		if p.Header.Marker { // end of frame: deliver reversed
			pkts := batch
			batch = nil
			s.After(30*time.Millisecond, func() {
				for i := len(pkts) - 1; i >= 0; i-- {
					pl.OnPacket(pkts[i], s.Now())
				}
			})
		}
	}
	snd.Start()
	s.RunUntil(5 * time.Second)
	skipped := 0
	for _, f := range pl.Frames {
		if f.Skipped {
			skipped++
		}
	}
	if len(pl.Frames) < 100 {
		t.Fatalf("only %d frames", len(pl.Frames))
	}
	if skipped > 0 {
		t.Errorf("%d frames skipped under in-frame reordering", skipped)
	}
}

func TestPlayerLatchQuirkRateGate(t *testing.T) {
	s := sim.New(4)
	cfg := DefaultPlayerConfig()
	cfg.LatchQuirk = true
	cfg.LatchRate = 12e6
	pl := NewPlayer(s, cfg, nil, nil)
	// Below the gate: not latched.
	pk := rtp.NewPacketizer(1, 96, 1200)
	feed := func(mbps float64, at time.Duration) {
		bytes := int(mbps * 1e6 / 8)
		sent := 0
		num := uint32(at / time.Second * 100)
		for sent < bytes {
			for _, p := range pk.Packetize(rtp.FrameInfo{Num: num, Size: 30000}) {
				pl.OnPacket(p, at)
				sent += p.MarshalSize()
			}
			num++
		}
	}
	for sec := 0; sec < 4; sec++ {
		feed(5, time.Duration(sec)*time.Second)
	}
	if pl.latched() {
		t.Error("latched at 5 Mbps, below the 12 Mbps gate")
	}
	pl2 := NewPlayer(s, cfg, nil, nil)
	for sec := 0; sec < 4; sec++ {
		feed2 := func(at time.Duration) {
			bytes := int(20e6 / 8)
			sent := 0
			num := uint32(at/time.Second*100) + 50000
			for sent < bytes {
				for _, p := range pk.Packetize(rtp.FrameInfo{Num: num, Size: 30000}) {
					pl2.OnPacket(p, at)
					sent += p.MarshalSize()
				}
				num++
			}
		}
		feed2(time.Duration(sec) * time.Second)
	}
	if !pl2.latched() {
		t.Error("not latched at 20 Mbps, above the gate")
	}
	// Disabled quirk never latches.
	cfg.LatchQuirk = false
	pl3 := NewPlayer(s, cfg, nil, nil)
	if pl3.latched() {
		t.Error("latched with the quirk disabled")
	}
}

func TestEncoderDeterministicPerSeed(t *testing.T) {
	a := NewEncoder(DefaultEncoderConfig(), 8e6, rand.New(rand.NewSource(42)))
	b := NewEncoder(DefaultEncoderConfig(), 8e6, rand.New(rand.NewSource(42)))
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * 33 * time.Millisecond
		fa, fb := a.NextFrame(at), b.NextFrame(at)
		if fa != fb {
			t.Fatalf("frame %d differs between same-seed encoders", i)
		}
	}
}

func TestSenderFrameEncodingRegistry(t *testing.T) {
	s := sim.New(6)
	ctrl := cc.NewStatic(8e6)
	snd := NewSender(s, DefaultSenderConfig(), ctrl, s.Stream("enc"))
	snd.Transmit = func(*rtp.Packet, int) {}
	snd.Start()
	s.RunUntil(2 * time.Second)
	rate, complexity, ok := snd.FrameEncoding(10)
	if !ok {
		t.Fatal("frame 10 not in the registry")
	}
	if rate < 2e6 || rate > 25e6 || complexity <= 0 {
		t.Errorf("encoding = %v, %v", rate, complexity)
	}
	if _, _, ok := snd.FrameEncoding(999999); ok {
		t.Error("unknown frame reported as known")
	}
}

// TestOnRepairedPacketAccounting: a frame completed by a retransmission
// plays instead of skipping, and the repaired/lost distinction shows up in
// the player's books.
func TestOnRepairedPacketAccounting(t *testing.T) {
	s := sim.New(7)
	pl := NewPlayer(s, DefaultPlayerConfig(), nil, nil)
	pk := rtp.NewPacketizer(1, 96, 1200)
	for num := uint32(0); num < 10; num++ {
		num := num
		at := time.Duration(num) * 33 * time.Millisecond
		s.At(at, func() {
			pkts := pk.Packetize(rtp.FrameInfo{Num: num, Size: 6000, EncodeTime: at})
			for i, p := range pkts {
				if num == 4 && i == 1 {
					// Lost on the wire; the repair layer delivers it 60 ms
					// later, well inside the jitter buffer.
					p := p
					s.After(60*time.Millisecond, func() { pl.OnRepairedPacket(p, s.Now()) })
					// A duplicate repair (RTX racing a second NACK) must
					// not double-count.
					s.After(80*time.Millisecond, func() { pl.OnRepairedPacket(p, s.Now()) })
					continue
				}
				pl.OnPacket(p, s.Now())
			}
		})
	}
	s.RunUntil(2 * time.Second)
	if pl.PacketsRepaired != 1 {
		t.Errorf("PacketsRepaired = %d, want 1", pl.PacketsRepaired)
	}
	if pl.FramesRepaired != 1 {
		t.Errorf("FramesRepaired = %d, want 1", pl.FramesRepaired)
	}
	var frame4 *PlayedFrame
	for i := range pl.Frames {
		if pl.Frames[i].Num == 4 {
			frame4 = &pl.Frames[i]
		}
	}
	if frame4 == nil {
		t.Fatal("frame 4 never decided")
	}
	if frame4.Skipped || !frame4.Repaired {
		t.Errorf("frame 4 skipped=%v repaired=%v, want played and repaired", frame4.Skipped, frame4.Repaired)
	}
	if frame4.SSIM <= 0 {
		t.Errorf("repaired frame scored %v", frame4.SSIM)
	}
}

// TestKeyframeRequestLimiterResetsAfterBlackout: a PLI issued just before a
// blackout was flushed with the dead downlink; when the stream resumes
// after a silence longer than the limiter window, the first post-recovery
// skip must request a keyframe immediately instead of serving out the
// stale limiter.
func TestKeyframeRequestLimiterResetsAfterBlackout(t *testing.T) {
	s := sim.New(8)
	cfg := DefaultPlayerConfig()
	cfg.KeyframeRecovery = true // 500 ms request interval
	pl := NewPlayer(s, cfg, nil, nil)
	var requests []time.Duration
	pl.KeyframeRequest = func() { requests = append(requests, s.Now()) }
	pk := rtp.NewPacketizer(1, 96, 1200)
	feed := func(num uint32, at time.Duration) {
		s.At(at, func() {
			for _, p := range pk.Packetize(rtp.FrameInfo{Num: num, Size: 6000, EncodeTime: at}) {
				pl.OnPacket(p, s.Now())
			}
		})
	}
	feed(0, 0)
	feed(1, 33*time.Millisecond)
	feed(3, 66*time.Millisecond) // frame 2 lost → skip ≈216 ms → request #1
	// Blackout: nothing arrives until 700 ms (gap > the 500 ms limiter
	// window, but request #1 is still inside it).
	feed(10, 700*time.Millisecond) // resume: frames 4..9 gone → gap skip
	s.RunUntil(2 * time.Second)
	if len(requests) < 2 {
		t.Fatalf("requests = %v, want the pre-blackout one plus an immediate post-recovery one", requests)
	}
	if requests[0] > 300*time.Millisecond {
		t.Fatalf("first request at %v, want ≈216 ms", requests[0])
	}
	// Without the staleness reset the limiter (armed at ≈216 ms) suppresses
	// the ≈705 ms gap skip, deferring the request to the first played frame
	// at ≈850 ms.
	if requests[1] > 800*time.Millisecond {
		t.Errorf("post-recovery request at %v, want immediately after the 700 ms resume", requests[1])
	}
}

// TestPlayerLatePacketsLeaveNoState: a packet that arrives after its frame
// was played or skipped (a late original, or an RTX landing after the skip)
// is counted as received but must not leave reassembly state behind — the
// depacketizer used to re-create a FrameState nothing ever deleted, one per
// late frame for the rest of the flight.
func TestPlayerLatePacketsLeaveNoState(t *testing.T) {
	s := sim.New(7)
	snd := NewSender(s, DefaultSenderConfig(), cc.NewStatic(8e6), s.Stream("enc"))
	pl := NewPlayer(s, DefaultPlayerConfig(), DefaultSSIMModel(), snd.FrameEncoding)
	sent, maxPending := 0, 0
	snd.Transmit = func(p *rtp.Packet, size int) {
		sent++
		delay := 40 * time.Millisecond
		if sent%50 == 0 {
			delay = 2 * time.Second // far past the jitter buffer and the give-up grace
		}
		s.After(delay, func() {
			pl.OnPacket(p, s.Now())
			if n := pl.depkt.Pending(); n > maxPending {
				maxPending = n
			}
		})
	}
	snd.Start()
	s.RunUntil(60 * time.Second)
	if len(pl.Frames) < 1700 || pl.PacketsReceived() < sent-200 {
		t.Fatalf("%d frames, %d of %d packets received: the late packets must still count", len(pl.Frames), pl.PacketsReceived(), sent)
	}
	// In flight at once: ~40 ms of frames, the jitter buffer, and a partial
	// frame or two waiting out its give-up grace.
	if maxPending > 16 {
		t.Errorf("depacketizer held up to %d frame states (%d at the end) over %d frames: late packets leak state",
			maxPending, pl.depkt.Pending(), len(pl.Frames))
	}
}
