package scream

import (
	"testing"
	"time"

	"rpivideo/internal/cc"
)

// feedbackLoad drives a controller the way the campaign's 25 Mbps flights
// do: 26 packets of 1200 bytes every 10 ms, then one RFC 8888 report over
// the 256 sequence numbers ending at the newest, all received, with a
// delay that wanders a few milliseconds over a 40 ms base.
type feedbackLoad struct {
	c     *Controller
	seq   uint16
	now   time.Duration
	sends [1 << 16]time.Duration
	acks  [256]cc.Ack
}

func (l *feedbackLoad) step() {
	for k := 0; k < 26; k++ {
		l.now += 385 * time.Microsecond
		l.c.OnPacketSent(cc.SentPacket{Seq: l.seq, Size: 1200, SendTime: l.now})
		l.sends[l.seq] = l.now
		l.seq++
	}
	for i := range l.acks {
		s := l.seq - uint16(len(l.acks)) + uint16(i)
		jitter := time.Duration(uint32(s)*7919%5000) * time.Microsecond
		l.acks[i] = cc.Ack{Seq: s, Received: true, ArrivalTime: l.sends[s] + 40*time.Millisecond + jitter}
	}
	l.c.OnFeedback(l.now+60*time.Millisecond, l.acks[:])
}

// warm runs 11 s of load, so the base-delay window is full and every
// buffer has reached its steady size.
func warm() *feedbackLoad {
	l := &feedbackLoad{c: New(Config{})}
	for i := 0; i < 1100; i++ {
		l.step()
	}
	return l
}

// BenchmarkOnFeedback is one 10 ms reporting interval (26 sends, one
// 256-ack report) against a full 10 s base-delay window.
func BenchmarkOnFeedback(b *testing.B) {
	l := warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.step()
	}
}

// TestOnFeedbackSteadyStateAllocations pins the feedback path at zero
// allocations once warm: the in-flight table and the base-delay deque are
// reused in place.
func TestOnFeedbackSteadyStateAllocations(t *testing.T) {
	l := warm()
	if n := testing.AllocsPerRun(500, l.step); n != 0 {
		t.Errorf("OnPacketSent+OnFeedback allocate %.2f times per reporting interval, want 0", n)
	}
	if l.c.Losses != 0 || l.c.bytesInFlight != 0 {
		t.Errorf("load is not the clean steady state it claims: %d losses, %d bytes in flight", l.c.Losses, l.c.bytesInFlight)
	}
}
