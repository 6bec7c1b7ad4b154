package endpoint

import (
	"testing"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/link"
	"rpivideo/internal/rtp"
	"rpivideo/internal/sim"
	"rpivideo/internal/video"
)

// feedbackLoop is a sender and a receiver joined through two links the way
// core.connect joins them: media and sender reports up, RTCP down, and every
// datagram released at the link's two exits, after OnDatagram for a landed
// one and in OnDrop for a dropped one. exits counts the datagrams that left
// a link by either exit, by RTCP packet type and format.
type feedbackLoop struct {
	s        *sim.Simulator
	snd      *Sender
	rcv      *Receiver
	up, down *link.Link
	exits    map[[2]uint8]int
	// next is the media sequence number the stopped sender's table holds
	// from, for the arrivals the pins record.
	next uint16
}

// newFeedbackLoop streams 10 s under controller k, then stops the frame
// clock and the player and lets the pacer drain: what is left on the clock
// is the feedback path alone — the receiver's responders, its RR and the
// sender's SR.
func newFeedbackLoop(k CC) *feedbackLoop {
	l := &feedbackLoop{s: sim.New(1), exits: map[[2]uint8]int{}}
	vcfg := video.DefaultSenderConfig()
	l.snd = NewSender(l.s, SenderConfig{Video: vcfg, CC: k})
	l.rcv = NewReceiver(l.s, ReceiverConfig{SSRC: vcfg.SSRC, PayloadType: vcfg.PayloadType,
		Player: video.DefaultPlayerConfig(), FrameEncoding: l.snd.Video.FrameEncoding,
		TWCC: k == CCGCC, CCFB: k == CCSCReAM})
	l.up = link.New(l.s, link.ProfileFor(cell.Urban, cell.P1), nil, nil, l.s.Stream("uplink"))
	l.down = link.New(l.s, link.FeedbackProfile(), nil, nil, l.s.Stream("downlink"))

	exit := func(d *rtp.Datagram) {
		pt, format, _ := rtp.PeekRTCP(d.B)
		l.exits[[2]uint8{pt, format}]++
		d.Release()
	}
	l.snd.Media = func(p *rtp.Packet, size int) { l.up.Send(p, size) }
	l.snd.Control = func(d *rtp.Datagram) { l.up.SendControl(d, len(d.B)) }
	l.rcv.Feedback = func(d *rtp.Datagram, size int) { l.down.Send(d, size) }
	l.up.Deliver = func(meta any, _ int, _, at time.Duration) {
		switch m := meta.(type) {
		case *rtp.Packet:
			l.rcv.OnMedia(m, at)
			m.Release()
		case *rtp.Datagram:
			l.rcv.OnDatagram(m.B, at)
			exit(m)
		}
	}
	l.down.Deliver = func(meta any, _ int, _, at time.Duration) {
		d := meta.(*rtp.Datagram)
		l.snd.OnDatagram(d.B, at)
		exit(d)
	}
	drop := func(meta any, _ int, _ time.Duration, _ link.Class, _ link.DropReason) {
		switch m := meta.(type) {
		case *rtp.Packet:
			m.Release()
		case *rtp.Datagram:
			exit(m)
		}
	}
	l.up.OnDrop, l.down.OnDrop = drop, drop

	l.rcv.StartRepair()
	l.snd.StartReports()
	l.rcv.StartReports()
	l.snd.Start()
	l.s.RunUntil(10 * time.Second)
	l.snd.Stop()
	l.rcv.Player.Stop()
	l.s.RunUntil(10*time.Second + 500*time.Millisecond)
	// The responders start over on the 2 000 packets the sender's table
	// still holds, which the pins then report as arriving.
	l.next = uint16(l.snd.Video.PacketsSent - 2000)
	if l.rcv.cfg.TWCC {
		l.rcv.twcc.Reset(receiverSSRC, vcfg.SSRC)
	}
	if l.rcv.cfg.CCFB {
		l.rcv.ccfb.Reset(receiverSSRC, vcfg.SSRC, l.rcv.ccfb.Window)
	}
	return l
}

// arrive records n of the stopped sender's packets as arriving now at the
// receiver's congestion feedback, one in 29 lost, as OnMedia records them.
func (l *feedbackLoop) arrive(n int) {
	now := l.s.Now()
	for i := 0; i < n; i++ {
		if seq := l.next; seq%29 != 0 {
			rec, _ := l.snd.Video.LookupSeq(seq)
			if l.rcv.cfg.TWCC {
				l.rcv.twcc.Record(rec.TransportSeq, now)
			}
			if l.rcv.cfg.CCFB {
				l.rcv.ccfb.Record(seq, now)
			}
		}
		l.next++
	}
}

// slotsRecycle reports whether a released datagram slot is handed out
// again. Built with the rtppoison tag it never is, and every report takes
// a fresh slot: the pins then check the round trips alone, not their
// allocations.
func slotsRecycle() bool {
	var pool rtp.DatagramPool
	d := pool.Get()
	d.Release()
	return pool.Get() == d
}

// window runs the clock to end, measured: the allocations of that stretch
// alone (testing.AllocsPerRun calls its function once unmeasured first, so
// that call only arms it).
func (l *feedbackLoop) window(t *testing.T, end time.Duration) float64 {
	t.Helper()
	armed := false
	return testing.AllocsPerRun(1, func() {
		if armed {
			l.s.RunUntil(end)
		}
		armed = true
	})
}

// TestFeedbackRoundTripAllocations pins one steady-state round trip of each
// kind of RTCP at zero allocations, through the links and the release rule
// core uses. A TWCC round trip (GCC) and an RFC 8888 one (SCReAM): the
// receiver's responder flushes its recorder or builds its report, appends
// it into a recycled datagram slot and hands it to the downlink, which lands
// it in Sender.OnDatagram (or drops it) and releases it. A sender report
// round: the SR appended into the sender's slot, up the link into
// Receiver.OnDatagram, released. A receiver report round: the same down.
// Each window must see exactly the round trip it measures leave the link
// (under rtppoison, that is all a window is held to).
func TestFeedbackRoundTripAllocations(t *testing.T) {
	pinned := slotsRecycle()
	cases := []struct {
		name       string
		cc         CC
		interval   time.Duration
		pt, format uint8
		perRound   int
	}{
		{"gcc-twcc", CCGCC, twccInterval, rtp.TypeTransportFeedback, rtp.FmtTWCC, 26},
		{"scream-ccfb", CCSCReAM, ccfbInterval, rtp.TypeTransportFeedback, rtp.FmtCCFB, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := newFeedbackLoop(c.cc)
			key := [2]uint8{c.pt, c.format}
			// A window opens just after a responder tick and closes just
			// after the next: one report sent and, 13 ms of downlink later,
			// landed — clear of the SR and RR, which fire on the half
			// seconds.
			tick := l.s.Now()/c.interval*c.interval + time.Millisecond
			l.s.RunUntil(tick)
			for i := 0; i < 70; i++ {
				tick += c.interval
				// The first 29 rounds, one period of the loss pattern, show
				// every scratch slice each report size it will see; the
				// rounds near a half second would also carry an SR or RR.
				if i < 29 || tick%(500*time.Millisecond) < 2*c.interval {
					l.arrive(c.perRound)
					l.s.RunUntil(tick)
					continue
				}
				l.arrive(c.perRound)
				before := l.exits[key]
				if n := l.window(t, tick); n != 0 && pinned {
					t.Fatalf("round %d: %.0f allocations, want 0", i, n)
				}
				if got := l.exits[key] - before; got != 1 {
					t.Fatalf("round %d: %d reports left the downlink, want 1", i, got)
				}
			}
			st := l.rcv.Datagrams()
			t.Logf("receiver slots %+v", st)
			if st.Slots > st.PeakLive+rtp.DatagramBlock && pinned {
				t.Errorf("receiver slots %+v: more than its peak plus one block of %d", st, rtp.DatagramBlock)
			}
		})
	}
	for _, c := range []struct {
		name   string
		offset time.Duration // of the report's tick within each second
		key    [2]uint8      // type and count: one report block in an RR
	}{
		{"sr", 0, [2]uint8{rtp.TypeSenderReport, 0}},
		{"rr", 500 * time.Millisecond, [2]uint8{rtp.TypeReceiverReport, 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			l := newFeedbackLoop(CCGCC)
			key := c.key
			sec := l.s.Now()/time.Second*time.Second + time.Second
			for i := 0; i < 10; i++ {
				at := sec + c.offset
				l.s.RunUntil(at - 10*time.Millisecond)
				before := l.exits[key]
				if n := l.window(t, at+300*time.Millisecond); n != 0 && pinned {
					t.Fatalf("round %d: %.0f allocations, want 0", i, n)
				}
				if got := l.exits[key] - before; got != 1 {
					t.Fatalf("round %d: %d reports left the link, want 1", i, got)
				}
				sec += time.Second
			}
		})
	}
}

// BenchmarkFeedbackRoundTrip is one responder interval of the feedback path
// in steady state under each controller, with the media clock stopped: the
// interval's arrivals recorded, the report built, appended into a datagram
// slot, carried down the feedback link into Sender.OnDatagram (acks, the
// controller, the pacer kick) and released.
func BenchmarkFeedbackRoundTrip(b *testing.B) {
	for _, c := range []struct {
		name     string
		cc       CC
		interval time.Duration
		perRound int
	}{
		{"gcc-twcc", CCGCC, twccInterval, 26},
		{"scream-ccfb", CCSCReAM, ccfbInterval, 5},
	} {
		b.Run(c.name, func(b *testing.B) {
			l := newFeedbackLoop(c.cc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%(1000/c.perRound) == 0 {
					// Start over in the sender's table, which holds the
					// 2 000 packets after l.next's first value.
					b.StopTimer()
					l.next = uint16(l.snd.Video.PacketsSent - 2000)
					b.StartTimer()
				}
				l.arrive(c.perRound)
				l.s.RunUntil(l.s.Now() + c.interval)
			}
		})
	}
}
