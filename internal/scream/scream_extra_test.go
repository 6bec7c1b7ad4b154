package scream

import (
	"math/rand"
	"testing"
	"time"

	"rpivideo/internal/cc"
)

func TestOverlappingReportsAckOnce(t *testing.T) {
	c := New(Config{})
	sendTimes := map[uint16]time.Duration{}
	for i := 0; i < 10; i++ {
		st := time.Duration(i) * time.Millisecond
		c.OnPacketSent(cc.SentPacket{Seq: uint16(i), Size: 1200, SendTime: st})
		sendTimes[uint16(i)] = st
	}
	// Two overlapping reports covering the same packets: the second must
	// not double-release bytes in flight.
	c.OnFeedback(60*time.Millisecond, feedbackFor(0, 10, sendTimes, 50*time.Millisecond))
	if c.bytesInFlight != 0 {
		t.Fatalf("bytes in flight = %d after full ack", c.bytesInFlight)
	}
	c.OnFeedback(70*time.Millisecond, feedbackFor(0, 10, sendTimes, 50*time.Millisecond))
	if c.bytesInFlight != 0 {
		t.Errorf("bytes in flight = %d after duplicate ack", c.bytesInFlight)
	}
}

func TestBoundedSRTTCapsWindow(t *testing.T) {
	c := New(Config{})
	// Feed an absurd RTT sample (long outage) and verify the window/rate
	// conversions stay bounded.
	c.OnPacketSent(cc.SentPacket{Seq: 0, Size: 1200, SendTime: 0})
	acks := []cc.Ack{{Seq: 0, Size: 1200, Received: true, SendTime: 0, ArrivalTime: 4 * time.Second}}
	for i := 0; i < 20; i++ {
		c.OnFeedback(4*time.Second+time.Duration(i)*10*time.Millisecond, acks)
	}
	if c.boundedSRTT() > 200*time.Millisecond {
		t.Errorf("bounded srtt = %v, want cap at 200 ms", c.boundedSRTT())
	}
	if r := c.PacingRate(0); r > 1.5*25e6+1 {
		t.Errorf("pacing rate = %v exceeds 1.5× max rate", r)
	}
}

func TestJitterReorderingNotDeclaredLost(t *testing.T) {
	c := New(Config{})
	sendTimes := map[uint16]time.Duration{}
	for i := 0; i < 20; i++ {
		st := time.Duration(i) * time.Millisecond
		c.OnPacketSent(cc.SentPacket{Seq: uint16(i), Size: 1200, SendTime: st})
		sendTimes[uint16(i)] = st
	}
	// A report in which packet 15 has not arrived yet (displaced by
	// jitter) but 16..19 have: it is recent (age < guard), so no loss.
	acks := feedbackFor(0, 20, sendTimes, 40*time.Millisecond)
	acks[15].Received = false
	c.OnFeedback(60*time.Millisecond, acks)
	if c.Losses != 0 {
		t.Errorf("recent reordered packet declared lost (%d losses)", c.Losses)
	}
	// Much later, with the hole aged and the highest ack far beyond the
	// reorder margin, it is a real loss.
	c.OnPacketSent(cc.SentPacket{Seq: 40, Size: 1200, SendTime: 800 * time.Millisecond})
	lateAcks := []cc.Ack{
		{Seq: 15, Size: 1200},
		{Seq: 40, Size: 1200, Received: true, SendTime: 800 * time.Millisecond, ArrivalTime: 850 * time.Millisecond},
	}
	c.OnFeedback(900*time.Millisecond, lateAcks)
	if c.Losses != 1 {
		t.Errorf("aged hole not declared lost (losses = %d)", c.Losses)
	}
}

func TestLossCountersSplit(t *testing.T) {
	c := New(Config{})
	sendTimes := map[uint16]time.Duration{}
	for i := 0; i < 300; i++ {
		st := time.Duration(i) * 100 * time.Microsecond
		c.OnPacketSent(cc.SentPacket{Seq: uint16(i), Size: 1200, SendTime: st})
		sendTimes[uint16(i)] = st
	}
	// A 64-wide report far ahead: everything below begin expires.
	c.OnFeedback(time.Second, feedbackFor(236, 64, sendTimes, 50*time.Millisecond))
	if c.LossesWindow == 0 {
		t.Error("window-expiry losses not counted")
	}
	if c.Losses != c.LossesWindow+c.LossesInBand {
		t.Errorf("loss counters inconsistent: %d != %d + %d", c.Losses, c.LossesWindow, c.LossesInBand)
	}
}

func TestRateHeadroomKeepsTargetBelowWindow(t *testing.T) {
	c := New(Config{})
	// Drive a long clean closed loop and verify the target stays below
	// what the window converts to.
	rngRun(c, t)
	cwndRate := c.cwnd * 8 / c.boundedSRTT().Seconds()
	if c.TargetBitrate(0) > cwndRate {
		t.Errorf("target %v above cwnd rate %v", c.TargetBitrate(0), cwndRate)
	}
}

func rngRun(c *Controller, t *testing.T) {
	t.Helper()
	sendTimes := map[uint16]time.Duration{}
	seq := uint16(0)
	now := time.Duration(0)
	for round := 0; round < 500; round++ {
		now += 10 * time.Millisecond
		for i := 0; i < 4; i++ {
			if !c.CanSend(now, 1200) {
				break
			}
			c.OnPacketSent(cc.SentPacket{Seq: seq, Size: 1200, SendTime: now})
			sendTimes[seq] = now
			seq++
		}
		if seq > 0 {
			begin := uint16(0)
			if seq > 64 {
				begin = seq - 64
			}
			c.OnFeedback(now+40*time.Millisecond, feedbackFor(begin, int(seq-begin), sendTimes, 35*time.Millisecond))
		}
	}
}

// TestControllerReuseMatchesFresh: a controller Reset after a use that left
// its in-flight table grown and holding records never acknowledged decides
// exactly as a new one does, and starts on the grown slots, emptied.
func TestControllerReuseMatchesFresh(t *testing.T) {
	// feed runs 3 000 reporting intervals of 26 sends and one report over
	// the 256 numbers ending at the newest, through the sequence wrap,
	// with random losses and delay, and returns the state after each.
	type state struct {
		cwnd, target        float64
		inFlight, losses    int
		window, inBand, len int
	}
	feed := func(c *Controller, seed int64) []state {
		rng := rand.New(rand.NewSource(seed))
		sends := map[uint16]cc.Ack{} // what the report will say of each
		seq, now := uint16(60000), time.Duration(0)
		acks := make([]cc.Ack, 256)
		var out []state
		for i := 0; i < 3000; i++ {
			for k := 0; k < 26; k++ {
				now += 385 * time.Microsecond
				c.OnPacketSent(cc.SentPacket{Seq: seq, Size: 1200, SendTime: now})
				sends[seq] = cc.Ack{Seq: seq}
				if rng.Intn(50) != 0 {
					sends[seq] = cc.Ack{Seq: seq, Received: true, Size: 1200, SendTime: now,
						ArrivalTime: now + 40*time.Millisecond + time.Duration(rng.Intn(30))*time.Millisecond}
				}
				seq++
			}
			for j := range acks {
				s := seq - 256 + uint16(j)
				if a, ok := sends[s]; ok {
					acks[j] = a
				} else {
					acks[j] = cc.Ack{Seq: s} // before the first send
				}
			}
			c.OnFeedback(now+60*time.Millisecond, acks)
			out = append(out, state{c.cwnd, c.TargetBitrate(now), c.bytesInFlight, c.Losses,
				c.LossesWindow, c.LossesInBand, c.inflight.Len()})
		}
		return out
	}
	c := New(Config{})
	for s := 0; s < 3000; s++ { // never acknowledged: numbers 1 024 apart collide
		c.OnPacketSent(cc.SentPacket{Seq: uint16(s), Size: 1200})
	}
	grown := c.inflight.Cap()
	if grown <= inflightInitSlots {
		t.Fatalf("the in-flight table never grew: %d slots", grown)
	}
	c.Reset(Config{})
	if c.inflight.Len() != 0 || c.inflight.Cap() != grown {
		t.Fatalf("after Reset: %d records on %d slots, want 0 on the grown %d", c.inflight.Len(), c.inflight.Cap(), grown)
	}
	got, want := feed(c, 2), feed(New(Config{}), 2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("report %d: reset controller %+v, a new one %+v", i, got[i], want[i])
		}
	}
	if last := want[len(want)-1]; last.losses == 0 {
		t.Errorf("no loss in 3 000 reports: the comparison never left the clean path: %+v", last)
	}
}
