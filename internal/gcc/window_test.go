package gcc

import (
	"math/rand"
	"testing"
	"time"

	"rpivideo/internal/cc"
)

// reslicedWindow is the receive-rate window as the controller held it before
// recvWindow: trimmed by re-slicing from the front, which gave capacity away
// and made append regrow the array every few reports.
type reslicedWindow struct {
	recv      []recvSample
	recvBytes int
}

func (w *reslicedWindow) add(arrival time.Duration, bytes int) {
	w.recv = append(w.recv, recvSample{arrival: arrival, bytes: bytes})
	w.recvBytes += bytes
}

func (w *reslicedWindow) reset() { w.recv, w.recvBytes = w.recv[:0], 0 }

func (w *reslicedWindow) rate(latestArrival time.Duration) float64 {
	const window = 500 * time.Millisecond
	cut := latestArrival - window
	i := 0
	for i < len(w.recv) && w.recv[i].arrival < cut {
		w.recvBytes -= w.recv[i].bytes
		i++
	}
	w.recv = w.recv[i:]
	if len(w.recv) < 2 {
		return 0
	}
	return float64(w.recvBytes*8) / window.Seconds()
}

// randomReport builds one TWCC report's acks at now: a burst of packets
// sent over the last interval, some lost, arrivals jittered (and so not
// always in order), sizes mixed.
func randomReport(rng *rand.Rand, now, interval time.Duration) []cc.Ack {
	acks := make([]cc.Ack, rng.Intn(120))
	for i := range acks {
		send := now - interval - 40*time.Millisecond + time.Duration(rng.Int63n(int64(interval)))
		acks[i] = cc.Ack{
			Size:        200 + rng.Intn(1100),
			SendTime:    send,
			Received:    rng.Intn(25) != 0,
			ArrivalTime: send + 30*time.Millisecond + time.Duration(rng.Int63n(int64(8*time.Millisecond))),
		}
	}
	return acks
}

// TestRecvWindowMatchesReslicedOracle drives a controller with a randomized
// ack stream — reports of 0 to 119 acks, gaps that empty the window, and
// silences long enough for the watchdog to reset it — and after every
// report holds its window to the re-sliced one fed the same acks: the same
// samples, the same byte sum, the same rate.
func TestRecvWindowMatchesReslicedOracle(t *testing.T) {
	const timeout = 2 * time.Second
	rng := rand.New(rand.NewSource(5))
	c := New(Config{FeedbackTimeout: timeout})
	wd := cc.NewWatchdog(timeout) // tells the oracle when the controller resets
	var want reslicedWindow
	now := time.Duration(0)
	reports, resets, emptied, peak := 0, 0, 0, 0
	for reports = 0; reports < 20_000; reports++ {
		interval := 50 * time.Millisecond
		switch rng.Intn(200) {
		case 0:
			interval = 3 * time.Second // starves the watchdog
		case 1, 2, 3:
			interval = 700 * time.Millisecond // outlasts the window
		}
		now += interval
		acks := randomReport(rng, now, interval)
		c.TargetBitrate(now) // latches a starvation, as the sender's queries do
		c.OnFeedback(now, acks)

		wd.Starved(now)
		if wd.OnFeedback(now) {
			want.reset()
			resets++
		}
		latest, received := time.Duration(0), 0
		for _, a := range acks {
			if a.Received {
				want.add(a.ArrivalTime, a.Size)
				latest = max(latest, a.ArrivalTime)
				received++
			}
		}
		if len(acks) == 0 {
			continue
		}
		wantRate := want.rate(latest)
		if received > 0 && len(want.recv) == received {
			emptied++
		}
		peak = max(peak, len(want.recv))

		got := make([]recvSample, c.recv.samples.Len())
		for i := range got {
			got[i] = *c.recv.samples.At(i)
		}
		if len(got) != len(want.recv) || c.recv.bytes != want.recvBytes {
			t.Fatalf("report %d: %d samples / %d bytes, oracle %d / %d", reports, len(got), c.recv.bytes, len(want.recv), want.recvBytes)
		}
		for i := range got {
			if got[i] != want.recv[i] {
				t.Fatalf("report %d: sample %d is %+v, oracle %+v", reports, i, got[i], want.recv[i])
			}
		}
		if gotRate := c.recv.rate(latest); gotRate != wantRate {
			t.Fatalf("report %d: rate %v, oracle %v", reports, gotRate, wantRate)
		}
	}
	if resets < 20 || emptied < 100 {
		t.Errorf("stream too tame: %d watchdog resets, %d reports that emptied the window", resets, emptied)
	}
	if limit := 4 * peak; c.recv.samples.Cap() > limit {
		t.Errorf("window holds %d samples at its peak but its array grew to %d", peak, c.recv.samples.Cap())
	}
}

// TestOnFeedbackSteadyStateAllocatesNothing: once the window's array has
// reached its size, a report costs the controller no allocation.
func TestOnFeedbackSteadyStateAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := New(Config{})
	now := time.Duration(0)
	reports := make([][]cc.Ack, 400)
	nows := make([]time.Duration, len(reports))
	for i := range reports {
		now += 50 * time.Millisecond
		reports[i], nows[i] = randomReport(rng, now, 50*time.Millisecond), now
	}
	i := 0
	step := func() {
		c.OnFeedback(nows[i], reports[i])
		i++
	}
	for i < 100 {
		step()
	}
	if n := testing.AllocsPerRun(250, step); n != 0 {
		t.Errorf("OnFeedback allocates %.2f times per report in steady state, want 0", n)
	}
}

// TestControllerReuseMatchesFresh: a controller Reset after a use decides
// exactly as a new one does, and starts on the receive window it grew,
// emptied, instead of regrowing it.
func TestControllerReuseMatchesFresh(t *testing.T) {
	feed := func(c *Controller, seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		now := time.Duration(0)
		var targets []float64
		for i := 0; i < 300; i++ {
			now += 50 * time.Millisecond
			c.OnFeedback(now, randomReport(rng, now, 50*time.Millisecond))
			targets = append(targets, c.TargetBitrate(now))
		}
		return targets
	}
	c := New(Config{})
	feed(c, 1)
	grown := c.recv.samples.Cap()
	if grown == 0 || c.recv.samples.Len() == 0 {
		t.Fatalf("the first use left %d samples on %d slots, want both above 0", c.recv.samples.Len(), grown)
	}
	c.Reset(Config{})
	if c.recv.samples.Len() != 0 || c.recv.samples.Cap() != grown {
		t.Fatalf("after Reset: %d samples on %d slots, want 0 on the grown %d", c.recv.samples.Len(), c.recv.samples.Cap(), grown)
	}
	got, want := feed(c, 2), feed(New(Config{}), 2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("report %d: reset controller targets %v, a new one %v", i, got[i], want[i])
		}
	}
}
