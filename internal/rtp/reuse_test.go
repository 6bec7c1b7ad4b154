package rtp

import (
	"bytes"
	"testing"
	"time"
)

// TestPacketizerReuseReclaimsEverySlot: a packetizer that takes over a
// Buffers reclaims every slot its predecessor allocated, the ones whose
// packets were still referenced included, with their counts reset, and
// packetizes exactly what a fresh packetizer does. Built with rtppoison the
// reclaimed slots are poisoned instead and never handed out again.
func TestPacketizerReuseReclaimsEverySlot(t *testing.T) {
	var b Buffers
	first := NewPacketizer(1, 96, 1200)
	first.Reuse(&b)
	var held []*Packet
	for n := uint32(0); n < 40; n++ {
		pkts := first.Packetize(FrameInfo{Num: n, Size: 9000})
		for i, p := range pkts {
			if n%4 == 0 && i == 0 {
				held = append(held, p) // never released: a holder that outlived its run
				continue
			}
			p.Release()
		}
	}
	grown := first.PoolStats().Slots

	next := NewPacketizer(1, 96, 1200)
	next.Reuse(&b)
	fresh := NewPacketizer(1, 96, 1200)
	st := next.PoolStats()
	if poisonReleased {
		if st.Slots != 0 {
			t.Fatalf("poisoned build reclaimed slots: %+v", st)
		}
		for _, p := range held {
			if meta, err := ParsePacketMeta(p.Payload); err != nil || meta != (PacketMeta{}) || p.VirtualPayloadLen != 0 {
				t.Fatalf("a held packet of the run before was not poisoned: %+v", meta)
			}
			mustPanic(t, "Retain of a reclaimed packet", p.Retain)
		}
	} else if st != (PoolStats{Slots: grown}) {
		t.Fatalf("after Reuse: pool %+v, want all %d slots free", st, grown)
	}
	for n := uint32(0); n < 40; n++ {
		got, want := next.Packetize(FrameInfo{Num: n, Size: 7000, EncodeTime: time.Duration(n)}), fresh.Packetize(FrameInfo{Num: n, Size: 7000, EncodeTime: time.Duration(n)})
		if len(got) != len(want) {
			t.Fatalf("frame %d: %d packets, fresh %d", n, len(got), len(want))
		}
		for i := range got {
			g, err := got[i].Marshal()
			if err != nil {
				t.Fatal(err)
			}
			w, _ := want[i].Marshal()
			if !bytes.Equal(g, w) || got[i].VirtualPayloadLen != want[i].VirtualPayloadLen {
				t.Fatalf("frame %d packet %d differs from a fresh packetizer's", n, i)
			}
			got[i].Release()
			want[i].Release()
		}
	}
	if st := next.PoolStats(); !poisonReleased && st.Slots != grown {
		t.Errorf("the reclaimed pool grew: %+v, had %d slots", st, grown)
	}
}

// TestDepacketizerReuseStartsEmpty: a depacketizer that takes over a
// Buffers sees none of its predecessor's pending frames, reassembles as a
// fresh one does, and keeps the ring the predecessor grew.
func TestDepacketizerReuseStartsEmpty(t *testing.T) {
	var b Buffers
	first := NewDepacketizer()
	first.Reuse(&b)
	for n := uint32(0); n < 300; n += 2 { // every other frame left pending
		if _, err := first.Push(mediaPacket(n, 0, 3, false, 0, 900), 0); err != nil {
			t.Fatal(err)
		}
	}
	grown := len(first.ring)

	next, fresh := NewDepacketizer(), NewDepacketizer()
	next.Reuse(&b)
	if next.Pending() != 0 || next.Frame(0) != nil || len(next.ring) != grown {
		t.Fatalf("after Reuse: %d pending, %d slots (predecessor's %d)", next.Pending(), len(next.ring), grown)
	}
	for n := uint32(0); n < 300; n++ {
		for i := uint16(0); i < 3; i += 1 + uint16(n%2) {
			p := mediaPacket(n, i, 3, n%30 == 0, time.Duration(n), 900)
			at := time.Duration(n) * time.Millisecond
			got, gerr := next.Push(p, at)
			want, werr := fresh.Push(p, at)
			if gerr != werr || got.Num != want.Num || got.Received != want.Received || got.Bytes != want.Bytes || got.Complete() != want.Complete() {
				t.Fatalf("frame %d index %d: %+v, %v; fresh %+v, %v", n, i, got, gerr, want, werr)
			}
		}
		if n >= 3 {
			next.Delete(n - 3)
			fresh.Delete(n - 3)
		}
	}
	if next.Pending() != fresh.Pending() {
		t.Errorf("%d pending, fresh %d", next.Pending(), fresh.Pending())
	}
}
