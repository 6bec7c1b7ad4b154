package endpoint

import (
	"testing"
	"time"

	"rpivideo/internal/repair"
	"rpivideo/internal/rtp"
	"rpivideo/internal/sim"
	"rpivideo/internal/video"
)

// repairLoop is a repaired sender and receiver joined synchronously: media
// lands at once except one packet in lossEvery, every retransmission and
// every RTCP packet lands at once, and each is released after its handler
// returns, as a link's exit releases it. A NACK tick is then one call chain:
// the scheduler's NACK into Sender.OnDatagram, each retransmission built in
// a packet slot and handed to Receiver.OnMedia and on to the player. With
// wire set, media and retransmissions cross as their marshalled bytes into
// Receiver.OnDatagram, as the UDP tools join the two.
type repairLoop struct {
	s   *sim.Simulator
	snd *Sender
	rcv *Receiver
	// rtxSeqs records the RTX stream's sequence numbers as they are sent,
	// into room made up front so that the pins see no allocation of it;
	// lost counts the media packets dropped.
	rtxSeqs []uint16
	lost    int
}

func newRepairLoop(rcfg repair.Config, lossEvery int, wire bool) *repairLoop {
	l := &repairLoop{s: sim.New(1), rtxSeqs: make([]uint16, 0, 1<<16)}
	vcfg := video.DefaultSenderConfig()
	l.snd = NewSender(l.s, SenderConfig{Video: vcfg, CC: CCStatic, StaticRate: 8e6, Repair: rcfg})
	l.rcv = NewReceiver(l.s, ReceiverConfig{SSRC: vcfg.SSRC, PayloadType: vcfg.PayloadType,
		Player: video.DefaultPlayerConfig(), FrameEncoding: l.snd.Video.FrameEncoding, Repair: rcfg})
	sent := 0
	lose := func() bool {
		if sent++; sent%lossEvery != 0 {
			return false
		}
		l.lost++
		return true
	}
	if wire {
		l.snd.Media = Marshalled(func(buf []byte) {
			if !lose() {
				l.rcv.OnDatagram(buf, l.s.Now())
			}
		})
		l.snd.RTX = Marshalled(func(buf []byte) {
			var h rtp.Header
			if _, err := h.Unmarshal(buf); err == nil {
				l.rtxSeqs = append(l.rtxSeqs, h.SequenceNumber)
			}
			l.rcv.OnDatagram(buf, l.s.Now())
		})
	} else {
		l.snd.Media = func(p *rtp.Packet, _ int) {
			if !lose() {
				l.rcv.OnMedia(p, l.s.Now())
			}
			p.Release()
		}
		l.snd.RTX = func(p *rtp.Packet, _ int) {
			l.rtxSeqs = append(l.rtxSeqs, p.Header.SequenceNumber)
			l.rcv.OnMedia(p, l.s.Now())
			p.Release()
		}
	}
	l.snd.Control = func(d *rtp.Datagram) {
		l.rcv.OnDatagram(d.B, l.s.Now())
		d.Release()
	}
	l.rcv.Feedback = func(d *rtp.Datagram, _ int) {
		l.snd.OnDatagram(d.B, l.s.Now())
		d.Release()
	}
	l.rcv.StartRepair()
	l.snd.StartReports()
	l.rcv.StartReports()
	l.snd.Start()
	return l
}

// TestRTXSequenceContiguousAcrossDenials starves the repair budget so that
// most retransmissions are denied: the RTX stream must still number the
// ones it sends 1, 2, 3, … with no gap, in both transports. A denied
// retransmission is neither numbered nor built.
func TestRTXSequenceContiguousAcrossDenials(t *testing.T) {
	for _, wire := range []bool{false, true} {
		rcfg := repair.DefaultConfig()
		rcfg.BudgetFraction, rcfg.BudgetBurst = 0.01, 4000
		l := newRepairLoop(rcfg, 20, wire)
		l.s.RunUntil(10 * time.Second)
		denied := l.snd.Budget.Denied
		if denied == 0 || len(l.rtxSeqs) == 0 {
			t.Fatalf("wire=%v: %d retransmissions sent, %d denied: the budget must deny some and grant some", wire, len(l.rtxSeqs), denied)
		}
		for i, seq := range l.rtxSeqs {
			if seq != uint16(i+1) {
				t.Fatalf("wire=%v: retransmission %d carries RTX sequence %d, want %d (%d denied so far)", wire, i, seq, i+1, denied)
			}
		}
		// Every retransmission sent was released once, and none denied
		// took a slot: the cache and the send queue hold every reference.
		if st, held := l.snd.Video.PacketPool(), l.snd.Cache.Len()+l.snd.Video.Queue().Len(); st.Refs != held {
			t.Errorf("wire=%v: pool %+v, %d references held by the cache and the queue", wire, st, held)
		}
		t.Logf("wire=%v: %d lost, %d retransmitted, %d denied, %d repaired", wire, l.lost, len(l.rtxSeqs), denied, l.rcv.Player.PacketsRepaired)
	}
}

// TestRepairRoundTripAllocations pins the repair round trip at zero
// allocations once warm: a NACK tick whose NACK reaches Sender.onNACK, each
// retransmission built in a recycled packet slot, carried to
// Receiver.OnMedia, unwrapped into the receiver's packet, healed at the
// detector, ingested by the player and released. Each measured window
// spans one NACK tick; most of them must see repairs land.
func TestRepairRoundTripAllocations(t *testing.T) {
	l := newRepairLoop(repair.DefaultConfig(), 20, false)
	l.s.RunUntil(20 * time.Second)
	tick := l.s.Now() + 5*time.Millisecond
	windows, repairing := 0, 0
	for i := 0; i < 100; i++ {
		tick += 10 * time.Millisecond
		if tick%time.Second < 100*time.Millisecond {
			// A second's first frame adds a key to the player's frames per
			// second, which now and then grows the map.
			l.s.RunUntil(tick)
			continue
		}
		before := l.rcv.Player.PacketsRepaired
		armed := false
		n := testing.AllocsPerRun(1, func() {
			if armed {
				l.s.RunUntil(tick)
			}
			armed = true
		})
		if n != 0 && slotsRecycle() {
			t.Fatalf("window %d: %.0f allocations, want 0", i, n)
		}
		windows++
		if l.rcv.Player.PacketsRepaired > before {
			repairing++
		}
	}
	if repairing < windows/4 || l.snd.Budget.Denied != 0 {
		t.Errorf("%d of %d windows repaired a loss, %d retransmissions denied: not the steady state the pin claims",
			repairing, windows, l.snd.Budget.Denied)
	}
	t.Logf("%d windows, %d with repairs; %d lost, %d retransmitted in all", windows, repairing, l.lost, len(l.rtxSeqs))
}
