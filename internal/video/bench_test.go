package video

import (
	"testing"
	"time"

	"rpivideo/internal/cc"
	"rpivideo/internal/rtp"
	"rpivideo/internal/sim"
)

// senderLoad is a static 8 Mbps sender with nothing downstream, already
// past frame 1 200 — where the old map registry rescanned itself on every
// registration. One step is one frame interval: encode, packetize, register,
// queue and pace out ≈28 packets.
type senderLoad struct {
	s   *sim.Simulator
	snd *Sender
	// lookups keeps the registry's read side in the measurement, the way
	// the player resolves each frame it plays.
	lookups int
}

func warmSender() *senderLoad {
	l := &senderLoad{s: sim.New(1)}
	l.snd = NewSender(l.s, DefaultSenderConfig(), &cc.Static{Rate: 8e6}, l.s.Stream("enc"))
	l.snd.Transmit = func(p *rtp.Packet, _ int) { p.Release() }
	l.snd.Start()
	l.s.RunUntil(45 * time.Second)
	return l
}

func (l *senderLoad) step() {
	l.s.RunUntil(l.s.Now() + time.Second/30)
	if _, _, ok := l.snd.FrameEncoding(uint32(l.snd.FramesEncoded - 5)); ok {
		l.lookups++
	}
}

// BenchmarkSenderTick is one frame interval of the sender in steady state.
func BenchmarkSenderTick(b *testing.B) {
	l := warmSender()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.step()
	}
	if l.lookups != b.N {
		b.Fatalf("%d of %d recent frames resolved", l.lookups, b.N)
	}
}

// TestSenderTickSteadyStateAllocations pins what a frame costs in
// allocations once warm, with a Transmit that releases every packet:
// nothing — the packetizer recycles its packets, and neither the frame
// registry, the send queue nor the pacer allocates.
func TestSenderTickSteadyStateAllocations(t *testing.T) {
	l := warmSender()
	if l.snd.FramesEncoded <= frameWindow {
		t.Fatalf("only %d frames encoded: warm-up must pass the registry window", l.snd.FramesEncoded)
	}
	if n := testing.AllocsPerRun(300, l.step); n != 0 {
		t.Errorf("%.2f allocations per frame interval, want 0", n)
	}
}
