package main

import (
	"testing"
	"time"

	"rpivideo/internal/cc"
	"rpivideo/internal/link"
	"rpivideo/internal/obs"
)

const ms = time.Millisecond

// handTrace is a six-packet uplink: packet 2 is lost on the radio, packet
// 4 is a bonded copy pair whose second-path copy arrives first, and a
// control packet and an RTX share the link without being media. Two
// feedback reports reach the sender.
func handTrace() []obs.Event {
	send := func(t time.Duration, dir obs.Dir, flags uint8, id, size int64) obs.Event {
		return obs.Event{T: t, Kind: obs.KindSend, Dir: dir, Flags: flags, Seq: id, Aux: size}
	}
	recv := func(t time.Duration, dir obs.Dir, flags uint8, id, size int64, owdMs float64) obs.Event {
		return obs.Event{T: t, Kind: obs.KindRecv, Dir: dir, Flags: flags, Seq: id, Aux: size, V: owdMs}
	}
	return []obs.Event{
		send(0*ms, obs.DirUp, 0, 0, 1200),
		send(1*ms, obs.DirUp, 0, 1, 1200),
		send(2*ms, obs.DirUp, obs.FlagCtrl, 2, 52), // sender report: not media
		send(3*ms, obs.DirUp, 0, 3, 1100),
		{T: 3 * ms, Kind: obs.KindDrop, Dir: obs.DirUp, Seq: 3, Aux: int64(link.DropLoss)},
		send(4*ms, obs.DirUp, 0, 4, 1000),
		recv(20*ms, obs.DirUp, 0, 0, 1200, 20),
		recv(22*ms, obs.DirUp, 0, 1, 1200, 21),
		recv(25*ms, obs.DirUp, 0, 4, 1000, 21),
		send(26*ms, obs.DirDown, 0, 0, 60), // first feedback report leaves the receiver
		send(30*ms, obs.DirUp, 0, 5, 900),
		send(30*ms, obs.DirUp2, 0, 0, 900), // bonded copy of the same packet
		send(31*ms, obs.DirUp, obs.FlagRTX, 6, 1210),
		recv(36*ms, obs.DirDown, 0, 0, 60, 10),
		{T: 36 * ms, Kind: obs.KindCC, Seq: 0, Aux: 4, V: 3e6},
		recv(48*ms, obs.DirUp2, 0, 0, 900, 18),
		recv(55*ms, obs.DirUp, 0, 5, 900, 25),
		send(60*ms, obs.DirUp, 0, 7, 800),
		send(70*ms, obs.DirDown, 0, 1, 60),
		recv(82*ms, obs.DirDown, 0, 1, 60, 12),
		{T: 82 * ms, Kind: obs.KindCC, Seq: 2, Aux: 2, V: 4e6},
	}
}

func TestDigestTrace(t *testing.T) {
	in := digestTrace(handTrace(), 100*ms)
	if got := len(in.media); got != 6 {
		t.Fatalf("media packets = %d, want 6 (control, RTX and the bonded copy are not new media)", got)
	}
	if got := [numLinks]int{len(in.sends[linkUp]), len(in.sends[linkDown]), len(in.sends[linkUp2])}; got != [numLinks]int{8, 2, 1} {
		t.Errorf("sends per link = %v, want [8 2 1]", got)
	}
	if in.linkPackets() != 11 {
		t.Errorf("linkPackets = %d, want 11", in.linkPackets())
	}
	if m := in.media[2]; m.delivered || m.size != 1100 {
		t.Errorf("lost packet = %+v", m)
	}
	if m := in.media[4]; !m.delivered || m.arrAt != 48*ms || m.sendAt != 30*ms {
		t.Errorf("bonded packet = %+v, want first copy's arrival at 48 ms", m)
	}
	if in.drops[link.DropLoss] != 1 || in.drops[link.DropOverflow] != 0 {
		t.Errorf("drops = %v", in.drops)
	}
	if len(in.cc) != 2 || in.cc[0].genAt != 26*ms || in.cc[1].genAt != 70*ms {
		t.Errorf("rate decisions = %+v, want report build times 26 ms and 70 ms", in.cc)
	}
	if len(in.owd) != 5 {
		t.Errorf("delay samples = %d, want 5 (every delivered media copy)", len(in.owd))
	}
	cur := 0
	if got := in.targetAt(10*ms, 2e6, &cur); got != 2e6 {
		t.Errorf("target before the first decision = %v", got)
	}
	if got := in.targetAt(40*ms, 2e6, &cur); got != 3e6 {
		t.Errorf("target after the first decision = %v", got)
	}
	if got := in.targetAt(90*ms, 2e6, &cur); got != 4e6 {
		t.Errorf("target after the second decision = %v", got)
	}
}

func TestAckBatchesContiguous(t *testing.T) {
	in := digestTrace(handTrace(), 100*ms)
	batches, packets := buildAckBatches(in, false)
	if len(batches) != 2 || packets != 6 {
		t.Fatalf("got %d batches covering %d packets, want 2 and 6", len(batches), packets)
	}
	want0 := []cc.Ack{
		{TransportSeq: 0, Seq: 0, Size: 1200, SendTime: 0, Received: true, ArrivalTime: 20 * ms},
		{TransportSeq: 1, Seq: 1, Size: 1200, SendTime: 1 * ms, Received: true, ArrivalTime: 22 * ms},
		{TransportSeq: 2, Seq: 2, Size: 1100, SendTime: 3 * ms},
		{TransportSeq: 3, Seq: 3, Size: 1000, SendTime: 4 * ms, Received: true, ArrivalTime: 25 * ms},
	}
	if batches[0].at != 36*ms || !equalAcks(batches[0].acks, want0) {
		t.Errorf("first batch at %v = %+v\nwant %+v", batches[0].at, batches[0].acks, want0)
	}
	// The second report takes up where the first stopped. Packet 5 had not
	// been sent when the receiver built it.
	want1 := []cc.Ack{
		{TransportSeq: 4, Seq: 4, Size: 900, SendTime: 30 * ms, Received: true, ArrivalTime: 48 * ms},
		{TransportSeq: 5, Seq: 5, Size: 800, SendTime: 60 * ms},
	}
	if batches[1].at != 82*ms || !equalAcks(batches[1].acks, want1) {
		t.Errorf("second batch at %v = %+v\nwant %+v", batches[1].at, batches[1].acks, want1)
	}
}

func TestAckBatchesWindowed(t *testing.T) {
	in := digestTrace(handTrace(), 100*ms)
	batches, packets := buildAckBatches(in, true)
	if len(batches) != 2 {
		t.Fatalf("got %d batches, want 2", len(batches))
	}
	// Built at 26 ms with a four-packet window: packet 3 is the highest
	// arrival, so the window is packets 0..3.
	if got := seqs(batches[0].acks); got != [4]int{0, 1, 2, 3} {
		t.Errorf("first window = %v, want 0..3", got)
	}
	if batches[0].acks[2].Received {
		t.Error("the lost packet is acknowledged")
	}
	// Built at 70 ms with a two-packet window: packet 4 is the highest
	// arrival, so the window is packets 3..4 and overlaps the first.
	if len(batches[1].acks) != 2 || batches[1].acks[0].Seq != 3 || batches[1].acks[1].Seq != 4 {
		t.Errorf("second window = %+v, want packets 3 and 4", batches[1].acks)
	}
	if !batches[1].acks[0].Received || !batches[1].acks[1].Received {
		t.Errorf("second window lost an arrival: %+v", batches[1].acks)
	}
	if packets != 5 {
		t.Errorf("distinct packets covered = %d, want 5 (packet 3 is reported twice)", packets)
	}
}

// A window reaching below packet 0 wraps in sequence space and reports
// nothing received there.
func TestAckBatchesWindowBelowZero(t *testing.T) {
	events := []obs.Event{
		{T: 0, Kind: obs.KindSend, Dir: obs.DirUp, Seq: 0, Aux: 1200},
		{T: 20 * ms, Kind: obs.KindRecv, Dir: obs.DirUp, Seq: 0, Aux: 1200, V: 20},
		{T: 30 * ms, Kind: obs.KindCC, Aux: 3, V: 2e6},
	}
	batches, packets := buildAckBatches(digestTrace(events, 50*ms), true)
	if len(batches) != 1 || len(batches[0].acks) != 3 {
		t.Fatalf("batches = %+v", batches)
	}
	a := batches[0].acks
	if a[0].Seq != 65534 || a[1].Seq != 65535 || a[2].Seq != 0 || a[0].Received || a[1].Received || !a[2].Received {
		t.Errorf("window = %+v, want 65534 and 65535 unreceived, then packet 0 received", a)
	}
	if packets != 1 {
		t.Errorf("distinct packets covered = %d, want 1 (only packet 0 exists)", packets)
	}
}

func equalAcks(a, b []cc.Ack) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func seqs(acks []cc.Ack) (out [4]int) {
	for i := range out {
		out[i] = -1
		if i < len(acks) {
			out[i] = int(acks[i].Seq)
		}
	}
	return out
}
