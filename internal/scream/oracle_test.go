package scream

import (
	"math/rand"
	"testing"
	"time"

	"rpivideo/internal/cc"
)

// refController is the controller as it stood before the in-flight table
// and the base-delay deque: unacknowledged packets in a map that every
// report scans whole, the base delay a slice rescanned per acknowledged
// packet. Only those two structures and the code that touches them live
// here; window, rate and queue logic run through the embedded Controller,
// so a difference between the two can only come from the data structures.
type refController struct {
	*Controller
	inflight   map[uint16]inflightPkt
	baseWindow []owdSample
}

func newRef(cfg Config) *refController {
	return &refController{Controller: New(cfg), inflight: make(map[uint16]inflightPkt)}
}

func (c *refController) OnPacketSent(p cc.SentPacket) {
	c.inflight[p.Seq] = inflightPkt{size: p.Size, sendTime: p.SendTime}
	c.bytesInFlight += p.Size
}

func (c *refController) updateOWD(now time.Duration, sendTime, arrival time.Duration) {
	owd := arrival - sendTime
	c.baseWindow = append(c.baseWindow, owdSample{at: now, owd: owd})
	i := 0
	for i < len(c.baseWindow) && now-c.baseWindow[i].at > baseWindowLen {
		i++
	}
	c.baseWindow = c.baseWindow[i:]
	base := c.baseWindow[0].owd
	for _, s := range c.baseWindow[1:] {
		if s.owd < base {
			base = s.owd
		}
	}
	q := owd - base
	if q < 0 {
		q = 0
	}
	c.qdelay = (c.qdelay*7 + q) / 8
}

func (c *refController) OnFeedback(now time.Duration, acks []cc.Ack) {
	if c.wd.OnFeedback(now) {
		c.inflight = make(map[uint16]inflightPkt)
		c.bytesInFlight = 0
		c.cwnd = cc.MinRate / 8 * c.boundedSRTT().Seconds()
		if c.cwnd < float64(2*mss) {
			c.cwnd = float64(2 * mss)
		}
		c.target = cc.MinRate
		c.qdelay = 0
		c.baseWindow = c.baseWindow[:0]
		c.lastLossAt = now
		c.lastRateAdjust = now
	}
	if len(acks) == 0 {
		return
	}
	bytesAcked := 0
	lossDetected := false
	var highestAcked uint16
	haveHighest := false

	for _, a := range acks {
		pkt, known := c.inflight[a.Seq]
		if !a.Received {
			continue
		}
		if !haveHighest || seqLess(highestAcked, a.Seq) {
			highestAcked = a.Seq
			haveHighest = true
		}
		if !known {
			continue
		}
		delete(c.inflight, a.Seq)
		c.bytesInFlight -= pkt.size
		bytesAcked += pkt.size
		if s := now - pkt.sendTime; s > 0 {
			c.srtt = (c.srtt*7 + s) / 8
		}
		c.updateOWD(now, pkt.sendTime, a.ArrivalTime)
	}

	const reorderMargin = 8
	if haveHighest {
		for _, a := range acks {
			if a.Received || !seqLess(a.Seq+reorderMargin, highestAcked) {
				continue
			}
			lossAge := c.srtt*3/2 + 20*time.Millisecond
			if pkt, known := c.inflight[a.Seq]; known && now-pkt.sendTime > lossAge {
				delete(c.inflight, a.Seq)
				c.bytesInFlight -= pkt.size
				c.Losses++
				c.LossesInBand++
				lossDetected = true
			}
		}
	}

	begin := acks[0].Seq
	for seq, pkt := range c.inflight {
		if seqLess(seq, begin) {
			delete(c.inflight, seq)
			c.bytesInFlight -= pkt.size
			c.Losses++
			c.LossesWindow++
			lossDetected = true
		}
	}
	if c.bytesInFlight < 0 {
		c.bytesInFlight = 0
	}

	lossReacted := c.updateCWND(now, bytesAcked, lossDetected)
	c.adjustRate(now, lossReacted)
	if c.wd.InBackoff(now) {
		c.target = cc.MinRate
	}
	c.manageQueue(now)
}

// pair feeds one input stream to the controller and to the reference and
// compares their state after every call.
type pair struct {
	t      *testing.T
	c      *Controller
	ref    *refController
	q, rq  cc.SendQueue
	calls  int
	resets int
}

func newPair(t *testing.T, cfg Config) *pair {
	p := &pair{t: t, c: New(cfg), ref: newRef(cfg)}
	p.c.SetQueue(&p.q)
	p.ref.SetQueue(&p.rq)
	return p
}

func (p *pair) push(it cc.Item) {
	p.q.Push(it)
	p.rq.Push(it)
}

func (p *pair) pop() {
	p.q.Pop()
	p.rq.Pop()
}

func (p *pair) sent(now time.Duration, sp cc.SentPacket) {
	p.c.OnPacketSent(sp)
	p.ref.OnPacketSent(sp)
	p.check(now, p.calls%64 == 0)
}

func (p *pair) feedback(now time.Duration, acks []cc.Ack) {
	if p.c.wd.Starved(now) {
		p.resets++ // this report ends a starvation: both restart from the floor
	}
	p.c.OnFeedback(now, acks)
	p.ref.OnFeedback(now, acks)
	p.check(now, true)
}

// check compares the two controllers; with table set it also walks the
// whole in-flight table against the reference map and the byte count.
func (p *pair) check(now time.Duration, table bool) {
	p.t.Helper()
	p.calls++
	c, r := p.c, p.ref.Controller
	if c.qdelay != r.qdelay || c.cwnd != r.cwnd || c.target != r.target || c.srtt != r.srtt ||
		c.bytesInFlight != r.bytesInFlight || c.Losses != r.Losses ||
		c.LossesInBand != r.LossesInBand || c.LossesWindow != r.LossesWindow ||
		c.QueueDiscards != r.QueueDiscards || p.q.Len() != p.rq.Len() {
		p.t.Fatalf("call %d at %v: table/deque controller diverged from map/rescan reference:\n"+
			" got  qdelay=%v cwnd=%v target=%v srtt=%v inflight=%d losses=%d/%d/%d discards=%d queue=%d\n"+
			" want qdelay=%v cwnd=%v target=%v srtt=%v inflight=%d losses=%d/%d/%d discards=%d queue=%d",
			p.calls, now,
			c.qdelay, c.cwnd, c.target, c.srtt, c.bytesInFlight, c.Losses, c.LossesInBand, c.LossesWindow, c.QueueDiscards, p.q.Len(),
			r.qdelay, r.cwnd, r.target, r.srtt, r.bytesInFlight, r.Losses, r.LossesInBand, r.LossesWindow, r.QueueDiscards, p.rq.Len())
	}
	if c.TargetBitrate(now) != p.ref.TargetBitrate(now) || c.PacingRate(now) != p.ref.PacingRate(now) ||
		c.CanSend(now, 1200) != p.ref.CanSend(now, 1200) {
		p.t.Fatalf("call %d at %v: rate queries differ", p.calls, now)
	}
	if !table {
		return
	}
	sum := 0
	for seq, want := range p.ref.inflight {
		got := c.inflight.Get(seq)
		if got == nil || *got != want {
			p.t.Fatalf("call %d at %v: table holds %+v for seq %d, reference map %+v", p.calls, now, got, seq, want)
		}
		sum += got.size
	}
	if c.inflight.Len() != len(p.ref.inflight) {
		p.t.Fatalf("call %d at %v: table holds %d records, reference map %d",
			p.calls, now, c.inflight.Len(), len(p.ref.inflight))
	}
	if sum != c.bytesInFlight {
		p.t.Fatalf("call %d at %v: bytesInFlight=%d but in-flight sizes sum to %d", p.calls, now, c.bytesInFlight, sum)
	}
}

// flightRec is the test link's record of one sent packet.
type flightRec struct {
	arrive time.Duration
	lost   bool
}

// TestOnFeedbackMatchesReferenceClosedLoop runs both controllers through a
// self-clocked flight over a synthetic link: capacity steps, random and
// burst loss, jitter reordering, arrival times quantised as RFC 8888 does
// (so base-delay ties are common), reports that overlap, arrive twice or
// out of order, feedback blackouts that trip the watchdog, and idle gaps
// longer than the base-delay window — starting just below the 16-bit wrap.
func TestOnFeedbackMatchesReferenceClosedLoop(t *testing.T) {
	for _, tc := range []struct {
		name    string
		window  int
		timeout time.Duration
	}{
		{"window24", 24, 0},
		{"window256-watchdog", 256, 500 * time.Millisecond},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.window)))
			p := newPair(t, Config{FeedbackTimeout: tc.timeout})
			const seq0 = 65000
			var pk []flightRec
			var held []cc.Ack // a report delayed past its successor
			now, linkFree := time.Duration(0), time.Duration(0)
			capacity, lossP := 10e6, 0.003
			blackoutUntil, fadeUntil := time.Duration(0), time.Duration(0)
			nextFb := 10 * time.Millisecond
			feedbacks := 0

			for step := 0; step < 60_000; step++ {
				now += time.Millisecond
				if step%1000 == 0 {
					capacity = []float64{3e6, 8e6, 15e6, 30e6}[rng.Intn(4)]
					switch rng.Intn(12) {
					case 0:
						blackoutUntil = now + time.Duration(600+rng.Intn(1500))*time.Millisecond
					case 1:
						fadeUntil = now + time.Duration(50+rng.Intn(300))*time.Millisecond
					case 2:
						if tc.timeout == 0 {
							now += 11 * time.Second // everything in flight lands; the base window empties
						}
					}
				}
				// The encoder fills the queue at the target rate.
				pps := p.c.TargetBitrate(now) / (1000 * 8) / 1000
				n := int(pps)
				if rng.Float64() < pps-float64(n) {
					n++
				}
				for i := 0; i < n; i++ {
					p.push(cc.Item{Size: 400 + rng.Intn(800), Enqueued: now})
				}
				// Self-clocked drain into the link.
				for {
					it, ok := p.q.Peek()
					if !ok || !p.c.CanSend(now, it.Size) {
						break
					}
					p.pop()
					seq := uint16(seq0 + len(pk))
					p.sent(now, cc.SentPacket{Seq: seq, Size: it.Size, SendTime: now})
					if linkFree < now {
						linkFree = now
					}
					linkFree += time.Duration(float64(it.Size*8) / capacity * float64(time.Second))
					jitter := time.Duration(rng.Intn(3000)) * time.Microsecond
					pk = append(pk, flightRec{
						arrive: linkFree + 35*time.Millisecond + jitter,
						lost:   rng.Float64() < lossP || (now < fadeUntil && rng.Intn(2) == 0)})
				}
				if now < nextFb {
					continue
				}
				nextFb = now + 10*time.Millisecond
				if now < blackoutUntil {
					continue
				}
				// The receiver's report as of 20 ms ago, delivered now.
				genAt := now - 20*time.Millisecond
				highest := -1
				for i := len(pk) - 1; i >= 0 && i >= len(pk)-4000; i-- {
					if !pk[i].lost && pk[i].arrive <= genAt {
						highest = i
						break
					}
				}
				if highest < 0 {
					continue
				}
				acks := make([]cc.Ack, 0, tc.window)
				for i := highest - tc.window + 1; i <= highest; i++ {
					a := cc.Ack{Seq: uint16(seq0 + i)}
					if i >= 0 && !pk[i].lost && pk[i].arrive <= genAt {
						a.Received = true
						a.ArrivalTime = genAt - (genAt-pk[i].arrive)/atoUnit*atoUnit
					}
					acks = append(acks, a)
				}
				switch r := rng.Intn(20); {
				case r == 0 && held == nil:
					held = acks // delivered after the next one
					continue
				case r == 1:
					p.feedback(now, acks) // delivered twice
				}
				p.feedback(now, acks)
				feedbacks++
				if held != nil {
					p.feedback(now, held)
					held = nil
				}
			}
			c := p.c
			t.Logf("%d packets, %d feedbacks, losses in-band %d / window %d, %d queue discards, %d restarts, table %d slots",
				len(pk), feedbacks, c.LossesInBand, c.LossesWindow, c.QueueDiscards, p.resets, c.inflight.Cap())
			if len(pk) < 20_000 {
				t.Errorf("only %d packets sent: the flow stalled", len(pk))
			}
			if c.LossesInBand == 0 {
				t.Error("no in-band loss was ever declared")
			}
			if tc.timeout == 0 && c.LossesWindow == 0 {
				t.Error("no packet ever fell below a report's begin_seq")
			}
			if tc.timeout > 0 && p.resets == 0 {
				t.Error("the watchdog never restarted the controller")
			}
		})
	}
}

// atoUnit is RFC 8888's arrival-offset resolution, as the wire format
// quantises arrival times before the controller sees them.
const atoUnit = time.Second / 1024

// TestOnFeedbackMatchesReferenceOpenLoop ignores CanSend, so the in-flight
// span grows past the table's initial size and forces it to double, and
// feeds ack batches that begin anywhere — before the oldest packet, past
// the newest, overlapping, out of order — with arbitrary received flags.
func TestOnFeedbackMatchesReferenceOpenLoop(t *testing.T) {
	seeds := int64(4)
	if testing.Short() {
		seeds = 1 // the rescanning reference is slow under the race detector
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newPair(t, Config{})
		now := time.Duration(0)
		first, next := 64000, 64000 // unwrapped sequence numbers
		owds := []time.Duration{40, 40, 41, 45, 60, 120}
		for step := 0; step < 6000; step++ {
			now += time.Duration(rng.Intn(40_000)) * time.Microsecond
			if rng.Intn(500) == 0 {
				now += 12 * time.Second
			}
			burst := rng.Intn(8)
			if rng.Intn(40) == 0 {
				burst = rng.Intn(3000) // outruns the acks: the table must grow
			}
			for ; burst > 0; burst-- {
				if rng.Intn(8) == 0 { // a pair leaves in the wrong order
					p.sent(now, cc.SentPacket{Seq: uint16(next + 1), Size: 100 + rng.Intn(1100), SendTime: now})
					p.sent(now, cc.SentPacket{Seq: uint16(next), Size: 100 + rng.Intn(1100), SendTime: now})
					next += 2
					continue
				}
				p.sent(now, cc.SentPacket{Seq: uint16(next), Size: 100 + rng.Intn(1100), SendTime: now})
				next++
			}
			if rng.Intn(3) != 0 {
				continue
			}
			n := 1 + rng.Intn(256)
			begin := first - 40 + rng.Intn(next-first+80)
			if rng.Intn(4) == 0 {
				begin = next - n // the usual shape: a window ending at the newest packet
			}
			recvP := rng.Float64()
			acks := make([]cc.Ack, n)
			for i := range acks {
				acks[i] = cc.Ack{Seq: uint16(begin + i)}
				if rng.Float64() < recvP {
					acks[i].Received = true
					acks[i].ArrivalTime = now - time.Duration(rng.Intn(20))*time.Millisecond
					if rec := p.c.inflight.Get(acks[i].Seq); rec != nil {
						acks[i].ArrivalTime = rec.sendTime + owds[rng.Intn(len(owds))]*time.Millisecond
					}
				}
			}
			p.feedback(now, acks)
			if begin > first {
				first = begin
			}
		}
		if p.c.inflight.Cap() <= inflightInitSlots {
			t.Errorf("seed %d: the in-flight table never grew (%d slots)", seed, p.c.inflight.Cap())
		}
	}
}

// TestBaseDelayMatchesRescan compares the ascending-minima deque with the
// rescanned window on delay sequences built to be awkward: values drawn
// from a handful of levels (ties everywhere), many samples per instant,
// rising and falling ramps, idle gaps just under, at and over the window,
// and resets.
func TestBaseDelayMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var b baseDelay
	var window []owdSample
	now := time.Duration(0)
	level := time.Duration(50)
	for i := 0; i < 300_000; i++ {
		switch r := rng.Intn(1000); {
		case r < 600: // same instant: one report acknowledges many packets
		case r < 990:
			now += time.Duration(rng.Intn(20)) * time.Millisecond
		case r < 993:
			now += baseWindowLen - time.Millisecond
		case r < 995:
			now += baseWindowLen
		case r < 997:
			now += baseWindowLen + time.Millisecond
		case r < 998:
			b.reset()
			window = window[:0]
		}
		switch rng.Intn(6) {
		case 0:
			level += time.Duration(rng.Intn(3))
		case 1:
			if level > 3 {
				level -= time.Duration(rng.Intn(3))
			}
		}
		owd := (level + time.Duration(rng.Intn(3))) * time.Millisecond

		window = append(window, owdSample{at: now, owd: owd})
		k := 0
		for k < len(window) && now-window[k].at > baseWindowLen {
			k++
		}
		window = window[k:]
		want := window[0].owd
		for _, s := range window[1:] {
			if s.owd < want {
				want = s.owd
			}
		}
		if got := b.update(now, owd); got != want {
			t.Fatalf("sample %d at %v: deque minimum %v, rescan minimum %v (window %d samples)", i, now, got, want, len(window))
		}
		if live := b.q.Len(); live > len(window) {
			t.Fatalf("sample %d: deque holds %d samples, window only %d", i, live, len(window))
		}
	}
	if b.q.Cap() > 1<<12 {
		t.Errorf("deque backing grew to %d entries", b.q.Cap())
	}
}
