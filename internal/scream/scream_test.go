package scream

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"rpivideo/internal/cc"
)

func TestDefaults(t *testing.T) {
	if cc.MinRate != 2e6 || cc.MaxRate != 25e6 || New(Config{}).TargetBitrate(0) != 2e6 {
		t.Errorf("rate range [%v, %v], start %v", cc.MinRate, cc.MaxRate, New(Config{}).TargetBitrate(0))
	}
	if qDelayTarget != 60*time.Millisecond || queueDiscardAge != 100*time.Millisecond ||
		queueGrowthLimit != 300*time.Millisecond || mss != 1200 {
		t.Errorf("delay target %v, discard age %v, growth limit %v, MSS %v",
			qDelayTarget, queueDiscardAge, queueGrowthLimit, mss)
	}
}

func TestInterface(t *testing.T) {
	c := New(Config{})
	if c.Name() != "scream" {
		t.Errorf("Name = %q", c.Name())
	}
	if c.TargetBitrate(0) != 2e6 {
		t.Errorf("initial target = %v", c.TargetBitrate(0))
	}
	if c.PacingRate(0) <= 0 {
		t.Error("pacing rate must be positive")
	}
}

func TestSelfClocking(t *testing.T) {
	c := New(Config{})
	size := 1200
	n := 0
	for c.CanSend(0, size) {
		c.OnPacketSent(cc.SentPacket{Seq: uint16(n), Size: size, SendTime: 0})
		n++
		if n > 10000 {
			t.Fatal("window never filled")
		}
	}
	if float64(c.bytesInFlight) > 1.25*c.cwnd+1200 {
		t.Errorf("bytes in flight %d exceed the 1.25×cwnd burst margin (%.0f)", c.bytesInFlight, c.cwnd)
	}
	if n < 2 {
		t.Errorf("window admits only %d packets", n)
	}
}

// feedbackFor builds acks covering [begin, begin+n) where all sent packets
// arrive with the given one-way delay.
func feedbackFor(begin uint16, n int, sendTimes map[uint16]time.Duration, owd time.Duration) []cc.Ack {
	acks := make([]cc.Ack, 0, n)
	for i := 0; i < n; i++ {
		seq := begin + uint16(i)
		st, ok := sendTimes[seq]
		a := cc.Ack{Seq: seq, Size: 1200}
		if ok {
			a.Received = true
			a.SendTime = st
			a.ArrivalTime = st + owd
		}
		acks = append(acks, a)
	}
	return acks
}

func TestAckReleasesWindow(t *testing.T) {
	c := New(Config{})
	sendTimes := map[uint16]time.Duration{}
	for i := 0; i < 5; i++ {
		st := time.Duration(i) * time.Millisecond
		c.OnPacketSent(cc.SentPacket{Seq: uint16(i), Size: 1200, SendTime: st})
		sendTimes[uint16(i)] = st
	}
	before := c.bytesInFlight
	c.OnFeedback(70*time.Millisecond, feedbackFor(0, 5, sendTimes, 50*time.Millisecond))
	if c.bytesInFlight != before-5*1200 {
		t.Errorf("bytes in flight = %d, want %d", c.bytesInFlight, before-5*1200)
	}
}

func TestCWNDGrowsWhenBelowQDelayTarget(t *testing.T) {
	c := New(Config{})
	cw0 := c.cwnd
	now := time.Duration(0)
	seq := uint16(0)
	for round := 0; round < 100; round++ {
		sendTimes := map[uint16]time.Duration{}
		for i := 0; i < 8; i++ {
			if !c.CanSend(now, 1200) {
				break
			}
			c.OnPacketSent(cc.SentPacket{Seq: seq, Size: 1200, SendTime: now})
			sendTimes[seq] = now
			seq++
			now += time.Millisecond
		}
		begin := seq - uint16(len(sendTimes))
		now += 50 * time.Millisecond
		c.OnFeedback(now, feedbackFor(begin, len(sendTimes), sendTimes, 40*time.Millisecond))
	}
	if c.cwnd <= cw0 {
		t.Errorf("cwnd did not grow: %.0f → %.0f", cw0, c.cwnd)
	}
}

func TestCWNDShrinksOnLoss(t *testing.T) {
	c := New(Config{})
	sendTimes := map[uint16]time.Duration{}
	for i := 0; i < 10; i++ {
		st := time.Duration(i) * time.Millisecond
		c.OnPacketSent(cc.SentPacket{Seq: uint16(i), Size: 1200, SendTime: st})
		sendTimes[uint16(i)] = st
	}
	// First report: everything received except packet 3. Too fresh and too
	// close to the highest ack to be declared lost (reorder tolerance).
	acks := feedbackFor(0, 10, sendTimes, 50*time.Millisecond)
	acks[3].Received = false
	c.OnFeedback(100*time.Millisecond, acks)
	if c.Losses != 0 {
		t.Fatalf("fresh hole declared lost immediately (losses=%d)", c.Losses)
	}
	cw0 := c.cwnd
	// A newer packet far beyond the hole gets acked, and the hole has aged
	// past the guard: now it is a loss.
	c.OnPacketSent(cc.SentPacket{Seq: 30, Size: 1200, SendTime: 250 * time.Millisecond})
	c.OnFeedback(300*time.Millisecond, []cc.Ack{
		{Seq: 3, Size: 1200},
		{Seq: 30, Size: 1200, Received: true, SendTime: 250 * time.Millisecond, ArrivalTime: 290 * time.Millisecond},
	})
	if c.Losses != 1 {
		t.Errorf("Losses = %d, want 1", c.Losses)
	}
	if c.cwnd >= cw0 {
		t.Errorf("cwnd did not shrink on loss: %.0f → %.0f", cw0, c.cwnd)
	}
	if c.bytesInFlight != 0 {
		t.Errorf("lost packet still counted in flight: %d", c.bytesInFlight)
	}
}

func TestSpuriousLossFromAckWindow(t *testing.T) {
	// Packets that fall below the report's begin_seq without being acked
	// are declared lost — the §4.2.1 defect.
	c := New(Config{})
	sendTimes := map[uint16]time.Duration{}
	for i := 0; i < 100; i++ {
		st := time.Duration(i) * 100 * time.Microsecond
		c.OnPacketSent(cc.SentPacket{Seq: uint16(i), Size: 1200, SendTime: st})
		sendTimes[uint16(i)] = st
	}
	// A 64-wide report covering [36, 100): packets 0..35 fall out unacked.
	c.OnFeedback(60*time.Millisecond, feedbackFor(36, 64, sendTimes, 50*time.Millisecond))
	if c.Losses != 36 {
		t.Errorf("spurious losses = %d, want 36", c.Losses)
	}
	target0 := c.TargetBitrate(0)
	if target0 >= 2e6*1.01 && c.cwnd >= New(Config{}).cwnd {
		t.Error("spurious loss should reduce window or rate")
	}
}

func TestQDelayEstimateSubtractsBase(t *testing.T) {
	c := New(Config{})
	// Constant 80 ms OWD (e.g. clock offset + propagation): queuing delay
	// should settle near zero.
	now := time.Duration(0)
	for i := 0; i < 200; i++ {
		now += 10 * time.Millisecond
		c.updateOWD(now, now-80*time.Millisecond, now)
	}
	if c.qdelay > 5*time.Millisecond {
		t.Errorf("qdelay = %v for constant OWD, want ≈0", c.qdelay)
	}
	// Then the delay rises by 100 ms: queuing delay should follow.
	for i := 0; i < 100; i++ {
		now += 10 * time.Millisecond
		c.updateOWD(now, now-180*time.Millisecond, now)
	}
	if c.qdelay < 50*time.Millisecond {
		t.Errorf("qdelay = %v after +100 ms step, want > 50 ms", c.qdelay)
	}
}

func TestQueueDiscard(t *testing.T) {
	c := New(Config{})
	var q cc.SendQueue
	c.SetQueue(&q)
	q.Push(cc.Item{Size: 1200, Enqueued: 0})
	q.Push(cc.Item{Size: 1200, Enqueued: 10 * time.Millisecond})

	sendTimes := map[uint16]time.Duration{0: 0}
	c.OnPacketSent(cc.SentPacket{Seq: 0, Size: 1200, SendTime: 0})
	// Feedback arrives at t=200ms: head of queue is 200 ms old → discard.
	c.OnFeedback(200*time.Millisecond, feedbackFor(0, 1, sendTimes, 50*time.Millisecond))
	if q.Len() != 0 {
		t.Errorf("queue len = %d after discard, want 0", q.Len())
	}
	if c.QueueDiscards != 1 {
		t.Errorf("QueueDiscards = %d, want 1", c.QueueDiscards)
	}
}

// run drives a closed loop against a synthetic link with given capacity and
// base OWD, returning the reached target bitrate.
func run(c *Controller, seconds float64, capacity float64, baseOWD time.Duration, lossP float64, rng *rand.Rand) float64 {
	var q cc.SendQueue
	c.SetQueue(&q)
	type flight struct {
		seq     uint16
		arrival time.Duration
		send    time.Duration
		lost    bool
	}
	var pipe []flight
	now := time.Duration(0)
	end := time.Duration(seconds * float64(time.Second))
	seq := uint16(0)
	// Link serialization clock.
	linkFree := time.Duration(0)
	const fbEvery = 10 * time.Millisecond
	nextFb := fbEvery
	sendTimes := map[uint16]time.Duration{}
	window := 256
	arrivedAll := map[uint16]time.Duration{}
	var highestSeq uint16
	haveHighest := false

	for now < end {
		now += time.Millisecond
		// Media: push packets at the target rate (1200-byte packets).
		pps := c.TargetBitrate(now) / (1200 * 8)
		n := int(pps / 1000)
		if rng.Float64() < math.Mod(pps/1000, 1) {
			n++
		}
		for i := 0; i < n; i++ {
			q.Push(cc.Item{Size: 1200, Enqueued: now})
		}
		// Self-clocked drain into the link.
		for {
			if _, ok := q.Peek(); !ok || !c.CanSend(now, 1200) {
				break
			}
			q.Pop()
			c.OnPacketSent(cc.SentPacket{Seq: seq, Size: 1200, SendTime: now})
			sendTimes[seq] = now
			ser := time.Duration(1200 * 8 / capacity * float64(time.Second))
			if linkFree < now {
				linkFree = now
			}
			linkFree += ser
			queuing := linkFree - now
			pipe = append(pipe, flight{seq: seq, send: now, arrival: now + baseOWD + queuing, lost: rng.Float64() < lossP})
			seq++
		}
		// Feedback every 10 ms covering the trailing window.
		if now >= nextFb {
			nextFb += fbEvery
			// Move newly arrived packets out of the pipe.
			keep := pipe[:0]
			for _, f := range pipe {
				if f.arrival <= now {
					if !f.lost {
						arrivedAll[f.seq] = f.arrival
						if !haveHighest || seqLess(highestSeq, f.seq) {
							highestSeq = f.seq
							haveHighest = true
						}
					}
				} else {
					keep = append(keep, f)
				}
			}
			pipe = keep
			arrived, highest, have := arrivedAll, highestSeq, haveHighest
			if have {
				begin := highest - uint16(window-1)
				acks := make([]cc.Ack, 0, window)
				for i := 0; i < window; i++ {
					s := begin + uint16(i)
					a := cc.Ack{Seq: s, Size: 1200}
					if at, ok := arrived[s]; ok {
						a.Received = true
						a.ArrivalTime = at
						a.SendTime = sendTimes[s]
					}
					acks = append(acks, a)
				}
				c.OnFeedback(now+baseOWD/2, acks)
			}
		}
	}
	return c.TargetBitrate(now)
}

func TestRampUpOnCleanLink(t *testing.T) {
	c := New(Config{})
	rng := rand.New(rand.NewSource(1))
	got := run(c, 40, 40e6, 35*time.Millisecond, 0, rng)
	if got < 20e6 {
		t.Errorf("target after 40 s on a 40 Mbps link = %.1f Mbps, want ≥ 20", got/1e6)
	}
}

func TestRampUpSpeedBoundsTime(t *testing.T) {
	// With a 1 Mbps/s ramp the paper's ≈25 s from 2→25 Mbps must hold: the
	// target cannot reach 25 Mbps before ~20 s.
	c := New(Config{})
	rng := rand.New(rand.NewSource(2))
	got := run(c, 15, 40e6, 35*time.Millisecond, 0, rng)
	if got >= 24.9e6 {
		t.Errorf("target after 15 s = %.1f Mbps; ramp-up should take ≈25 s", got/1e6)
	}
}

func TestConvergesBelowCapacity(t *testing.T) {
	c := New(Config{})
	rng := rand.New(rand.NewSource(3))
	got := run(c, 40, 10e6, 35*time.Millisecond, 0, rng)
	if got > 12.5e6 {
		t.Errorf("target on a 10 Mbps link = %.1f Mbps, want ≤ capacity + headroom", got/1e6)
	}
	if got < 5e6 {
		t.Errorf("target on a 10 Mbps link = %.1f Mbps, want reasonable utilization", got/1e6)
	}
}

func TestBacksOffUnderLoss(t *testing.T) {
	c := New(Config{})
	rng := rand.New(rand.NewSource(4))
	got := run(c, 20, 40e6, 35*time.Millisecond, 0.05, rng)
	if got > 15e6 {
		t.Errorf("target under 5%% loss = %.1f Mbps, want suppressed", got/1e6)
	}
	if c.Losses == 0 {
		t.Error("no losses recorded")
	}
}

// Property: the target stays within [cc.MinRate, cc.MaxRate], cwnd stays above the
// floor and bytes-in-flight never goes negative, under arbitrary feedback.
func TestPropertyInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{})
		now := time.Duration(0)
		seq := uint16(0)
		for round := 0; round < 60; round++ {
			now += time.Duration(rng.Intn(20)+1) * time.Millisecond
			n := rng.Intn(10)
			sendTimes := map[uint16]time.Duration{}
			for i := 0; i < n; i++ {
				c.OnPacketSent(cc.SentPacket{Seq: seq, Size: rng.Intn(1400) + 100, SendTime: now})
				sendTimes[seq] = now
				seq++
			}
			var acks []cc.Ack
			m := rng.Intn(30) + 1
			begin := seq - uint16(rng.Intn(40))
			for i := 0; i < m; i++ {
				s := begin + uint16(i)
				a := cc.Ack{Seq: s, Size: 1200}
				if rng.Float64() < 0.7 {
					a.Received = true
					a.SendTime = sendTimes[s]
					a.ArrivalTime = now + time.Duration(rng.Intn(100))*time.Millisecond
				}
				acks = append(acks, a)
			}
			c.OnFeedback(now, acks)
			tb := c.TargetBitrate(now)
			if math.IsNaN(tb) || tb < 2e6-1 || tb > 25e6+1 {
				return false
			}
			if c.cwnd < float64(2*1200) || c.bytesInFlight < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEmptyFeedbackIgnored(t *testing.T) {
	c := New(Config{})
	before := c.TargetBitrate(0)
	c.OnFeedback(time.Second, nil)
	if c.TargetBitrate(0) != before {
		t.Error("empty feedback changed the target")
	}
}
