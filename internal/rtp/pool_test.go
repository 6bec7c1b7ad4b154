package rtp

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestRetainOfReleasedPacketPanics(t *testing.T) {
	p := NewPacketizer(1, 96, 1200)
	pkt := p.Packetize(FrameInfo{Num: 1, Size: 500})[0]
	pkt.Release()
	mustPanic(t, "Retain after the last Release", pkt.Retain)
}

func TestReleaseBelowZeroPanics(t *testing.T) {
	p := NewPacketizer(1, 96, 1200)
	pkt := p.Packetize(FrameInfo{Num: 1, Size: 500})[0]
	pkt.Retain()
	pkt.Release()
	pkt.Release()
	mustPanic(t, "a third Release of a twice-referenced packet", pkt.Release)
}

// TestRetainReleaseIgnoreUnpooledPackets: packets no packetizer made, and
// copies of a pooled packet's value, carry no count.
func TestRetainReleaseIgnoreUnpooledPackets(t *testing.T) {
	p := NewPacketizer(1, 96, 1200)
	pooled := p.Packetize(FrameInfo{Num: 1, Size: 500})[0]
	buf, err := pooled.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	parsed := new(Packet)
	if err := parsed.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	rtx := p.WrapRTX(pooled, 2, 97, 1)
	orig, _, err := UnwrapRTX(rtx, 1, 96)
	if err != nil {
		t.Fatal(err)
	}
	rtx.Release()
	copied := *pooled
	for _, q := range []*Packet{{Payload: []byte{1}}, parsed, &orig, &copied} {
		for i := 0; i < 3; i++ {
			q.Release()
			q.Retain()
		}
	}
	if st := p.PoolStats(); st.Live != 1 {
		t.Fatalf("pool %+v: the pooled packet's count moved", st)
	}
	pooled.Release()
	if st := p.PoolStats(); st.Live != 0 {
		t.Fatalf("pool %+v after the one Release", st)
	}
}

// TestReleasedSlotIsReusedOrPoisoned: a released packet's slot serves the
// next frame — unless built with rtppoison, when it is overwritten and never
// handed out again.
func TestReleasedSlotIsReusedOrPoisoned(t *testing.T) {
	p := NewPacketizer(1, 96, 1200)
	old := p.Packetize(FrameInfo{Num: 1, Size: 500})[0]
	old.Release()
	next := p.Packetize(FrameInfo{Num: 2, Size: 500})[0]
	if poisonReleased {
		meta, err := ParsePacketMeta(old.Payload)
		if next == old || err != nil || meta != (PacketMeta{}) || old.VirtualPayloadLen != 0 {
			t.Fatalf("released packet reused or not poisoned: %+v", meta)
		}
		return
	}
	if next != old {
		t.Fatal("the released slot was not reused")
	}
	if meta, _ := ParsePacketMeta(next.Payload); meta.FrameNum != 2 || meta.Keyframe {
		t.Fatalf("reused slot carries %+v", meta)
	}
}

// FuzzPacketPool runs a random schedule of Packetize, Retain and Release over
// four holders. After every step, each packet a holder still references
// must marshal to exactly what a packetizer allocating every packet afresh
// (fourMakesPacketize) produced for it, and the pool must count exactly the
// packets still held.
func FuzzPacketPool(f *testing.F) {
	f.Add([]byte{0, 40, 1, 2, 0, 9, 2, 1, 0, 200, 3, 2, 0, 2, 1, 0, 50, 2})
	f.Add([]byte{0, 255, 0, 255, 2, 0, 2, 1, 2, 2, 2, 3, 0, 255, 1, 1, 1, 1, 2, 0, 2, 0})
	f.Add(bytes.Repeat([]byte{0, 30, 2, 0, 2, 1}, 20))
	f.Fuzz(func(t *testing.T, ops []byte) {
		type held struct {
			pkt  *Packet
			want []byte
		}
		const holders = 4
		var hs [holders][]held
		p := NewPacketizer(7, 96, 1200)
		var seq uint16
		num := uint32(0)
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		for len(ops) > 0 {
			switch op := next(); op % 3 {
			case 0: // a frame, all of its references to one holder
				fi := FrameInfo{Num: num, EncodeTime: time.Duration(num) * 33 * time.Millisecond,
					Keyframe: op&4 != 0, Size: next() * 97, RTPTime: num * 3000}
				h := next() % holders
				got := p.Packetize(fi)
				want := fourMakesPacketize(p, seq, seq, fi)
				for i, pkt := range got {
					wb, err := want[i].Marshal()
					if err != nil {
						t.Fatal(err)
					}
					hs[h] = append(hs[h], held{pkt, wb})
				}
				seq += uint16(len(got))
				num++
			case 1: // one holder shares a packet with another
				from, to := next()%holders, next()%holders
				if len(hs[from]) > 0 {
					x := hs[from][next()%len(hs[from])]
					x.pkt.Retain()
					hs[to] = append(hs[to], x)
				}
			case 2: // one holder lets go of a packet
				h := next() % holders
				if len(hs[h]) > 0 {
					i := next() % len(hs[h])
					hs[h][i].pkt.Release()
					hs[h] = append(hs[h][:i], hs[h][i+1:]...)
				}
			}
			live, refs := map[*Packet]bool{}, 0
			for h := range hs {
				refs += len(hs[h])
				for _, x := range hs[h] {
					live[x.pkt] = true
					b, err := x.pkt.Marshal()
					if err != nil || !bytes.Equal(b, x.want) {
						t.Fatalf("held packet seq %d marshals to %x, made as %x (%v)",
							binary.BigEndian.Uint16(x.want[2:]), b, x.want, err)
					}
				}
			}
			if st := p.PoolStats(); st.Live != len(live) || st.Refs != refs || !poisonReleased && st.Slots > st.PeakLive+PoolBlock {
				t.Fatalf("pool %+v with %d packets held by %d references", st, len(live), refs)
			}
		}
	})
}
