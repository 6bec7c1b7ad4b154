package rtp

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestPacketizerReuseReclaimsEverySlot: a packetizer's Reset reclaims every
// slot it allocated, the ones whose packets were still referenced included,
// with their counts reset, and it then packetizes exactly what a fresh
// packetizer does. Built with rtppoison the reclaimed slots are poisoned
// instead and never handed out again.
func TestPacketizerReuseReclaimsEverySlot(t *testing.T) {
	first := NewPacketizer(1, 96, 1200)
	next := first // after its Reset
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

	next.Reset(1, 96, 1200)
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
		t.Fatalf("after Reset: pool %+v, want all %d slots free", st, grown)
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

// TestDepacketizerReuseStartsEmpty: a depacketizer's Reset leaves none of
// its pending frames, and it then reassembles as a fresh one does on the
// ring it grew.
func TestDepacketizerReuseStartsEmpty(t *testing.T) {
	first := NewDepacketizer()
	next := first                         // after its Reset
	for n := uint32(0); n < 300; n += 2 { // every other frame left pending
		if _, err := first.Push(mediaPacket(n, 0, 3, false, 0, 900), 0); err != nil {
			t.Fatal(err)
		}
	}
	grown := len(first.ring)

	fresh := NewDepacketizer()
	next.Reset()
	if (next.live+len(next.spill)) != 0 || next.Frame(0) != nil || len(next.ring) != grown {
		t.Fatalf("after Reset: %d pending, %d slots (it grew %d)", next.live+len(next.spill), len(next.ring), grown)
	}
	for n := uint32(0); n < 300; n++ {
		for i := uint16(0); i < 3; i += 1 + uint16(n%2) {
			p := mediaPacket(n, i, 3, n%30 == 0, time.Duration(n), 900)
			at := time.Duration(n) * time.Millisecond
			got, gerr := next.Push(p, at)
			want, werr := fresh.Push(p, at)
			if gerr != werr || exported(got) != exported(want) || got.Complete() != want.Complete() {
				t.Fatalf("frame %d index %d: %+v, %v; fresh %+v, %v", n, i, got, gerr, want, werr)
			}
		}
		if n >= 3 {
			next.Delete(n - 3)
			fresh.Delete(n - 3)
		}
	}
	if next.live+len(next.spill) != fresh.live+len(fresh.spill) {
		t.Errorf("%d pending, fresh %d", next.live+len(next.spill), fresh.live+len(fresh.spill))
	}
}

// TestPacketizerReuseKeepsGrownFreeList: the free list a packetizer grows
// mid-run, as its pool gains blocks, is the one it starts with after its
// Reset, and so is the per-frame list Packetize returns, so a second run of
// the same traffic allocates nothing at all: no block, no free list, no
// frame list. Built with rtppoison nothing is reclaimed, so there is
// nothing to pin.
func TestPacketizerReuseKeepsGrownFreeList(t *testing.T) {
	if poisonReleased {
		t.Skip("a poisoned pool never reuses a slot")
	}
	// One run: 40 frames of 8 packets, two thirds of them held to the end,
	// so the pool grows block by block while packets come and go.
	run := func(p *Packetizer) {
		var held []*Packet
		for n := uint32(0); n < 40; n++ {
			for i, pkt := range p.Packetize(FrameInfo{Num: n, Size: 9000}) {
				if i%3 != 0 {
					held = append(held, pkt)
					continue
				}
				pkt.Release()
			}
		}
		for _, pkt := range held {
			pkt.Release()
		}
	}
	next := NewPacketizer(1, 96, 1200)
	run(next)
	first := next.PoolStats()
	if first.Slots <= 2*PoolBlock || cap(next.pool.free) < first.Slots || cap(next.out) < 8 {
		t.Fatalf("the first run's pool %+v, its free list with room for %d slots, its frame list for %d packets", first, cap(next.pool.free), cap(next.out))
	}
	held := make([]*Packet, 0, 256)
	// Mallocs counts the whole process. With a second P idle, the world's
	// restart after ReadMemStats can start a thread (its m, g0, gsignal
	// and two profiling stacks: 5 allocations) and the scavenger can put
	// its first timer on an empty heap (1). At one P, as
	// testing.AllocsPerRun measures, neither lands inside the window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	next.Reset(1, 96, 1200)
	for n := uint32(0); n < 40; n++ {
		for i, pkt := range next.Packetize(FrameInfo{Num: n, Size: 9000}) {
			if i%3 != 0 {
				held = append(held, pkt)
				continue
			}
			pkt.Release()
		}
	}
	for _, pkt := range held {
		pkt.Release()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("a second run after Reset allocated %d times, want 0", n)
	}
	if st := next.PoolStats(); st.Slots != first.Slots {
		t.Errorf("the second run's pool %+v grew past the first's %d slots", st, first.Slots)
	}
}

// TestPacketizeOverwritesEveryField: Packetize builds a packet in a slot
// that held another, field by field; every field of Packet must come out
// as a fresh packetizer's, however the slot's last packet was left — all
// of it set, through reflection, so a field added to Packet or Header
// that Packetize does not write fails here.
func TestPacketizeOverwritesEveryField(t *testing.T) {
	if poisonReleased {
		t.Skip("a poisoned pool never reuses a slot")
	}
	var dirty func(v reflect.Value)
	dirty = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if f := v.Field(i); f.CanSet() {
					dirty(f)
				}
			}
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(-7)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(7)
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
			dirty(v.Index(0))
		}
	}
	used, fresh := NewPacketizer(1, 96, 1200), NewPacketizer(1, 96, 1200)
	for _, pkt := range used.Packetize(FrameInfo{Num: 1, Size: 3000, Keyframe: true}) {
		dirty(reflect.ValueOf(&pkt.Header).Elem())
		pkt.Payload, pkt.VirtualPayloadLen, pkt.PadLen = []byte{1, 2, 3}, -1, 9
		for i := range pkt.slot.bytes {
			pkt.slot.bytes[i] = 0xEE
		}
		pkt.Release()
	}
	fresh.Packetize(FrameInfo{Num: 1, Size: 3000, Keyframe: true})
	f := FrameInfo{Num: 2, Size: 2000, EncodeTime: time.Second, RTPTime: 90000}
	got, want := used.Packetize(f), fresh.Packetize(f)
	for i := range want {
		g, w := *got[i], *want[i]
		g.slot, w.slot = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Errorf("packet %d built in a used slot:\n%+v\na fresh packetizer's:\n%+v", i, g, w)
		}
	}
}
