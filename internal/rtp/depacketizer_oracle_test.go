package rtp

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"time"
)

// mapDepacketizer is the Depacketizer as it was before the ring: one
// heap-allocated state and bitset per frame, in a map. It is the reference
// the ring must answer exactly as.
type mapDepacketizer struct {
	frames map[uint32]*mapFrame
}

type mapFrame struct {
	FrameState
	got []uint64
}

func (d *mapDepacketizer) push(pkt *Packet, at time.Duration) (*mapFrame, error) {
	meta, err := ParsePacketMeta(pkt.Payload)
	if err != nil {
		return nil, err
	}
	fs, ok := d.frames[meta.FrameNum]
	if !ok {
		fs = &mapFrame{
			FrameState: FrameState{Num: meta.FrameNum, EncodeTime: meta.EncodeTime, Keyframe: meta.Keyframe,
				Total: int(meta.Total), FirstArrival: at},
			got: make([]uint64, (int(meta.Total)+63)/64),
		}
		d.frames[meta.FrameNum] = fs
	}
	w, bit := int(meta.Index)/64, uint64(1)<<(meta.Index%64)
	if w < len(fs.got) && fs.got[w]&bit != 0 {
		return fs, ErrDuplicate
	}
	for w >= len(fs.got) {
		fs.got = append(fs.got, 0)
	}
	fs.got[w] |= bit
	fs.Received++
	if at > fs.LastArrival {
		fs.LastArrival = at
	}
	return fs, nil
}

// mediaPacket builds a media packet carrying the given frame header.
func mediaPacket(num uint32, index, total uint16, keyframe bool, enc time.Duration, virtual int) *Packet {
	meta := make([]byte, payloadMetaSize)
	binary.BigEndian.PutUint32(meta[0:], num)
	binary.BigEndian.PutUint16(meta[4:], index)
	binary.BigEndian.PutUint16(meta[6:], total)
	if keyframe {
		meta[8] = flagKeyframe
	}
	binary.BigEndian.PutUint64(meta[12:], uint64(enc))
	return &Packet{Payload: meta, VirtualPayloadLen: virtual}
}

// sameFrame compares the exported state of a ring frame with the oracle's.
func sameFrame(got *FrameState, want *mapFrame) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return exported(got) == exported(&want.FrameState)
}

type frameFields struct {
	num                uint32
	enc, first, last   time.Duration
	keyframe, repaired bool
	total, received    int
}

func exported(f *FrameState) frameFields {
	return frameFields{f.Num, f.EncodeTime, f.FirstArrival, f.LastArrival, f.Keyframe, f.Repaired, f.Total, f.Received}
}

// TestDepacketizerMatchesMapOracle drives the ring and the map through the
// same stream: frames mostly in order with reordered, duplicated and lost
// packets, forged indices at and past the advertised total, zero totals,
// frames far ahead and far behind (forcing growth and the spill), and frames
// deleted in and out of order. Every answer must be the map's.
func TestDepacketizerMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := NewDepacketizer()
		ref := &mapDepacketizer{frames: map[uint32]*mapFrame{}}
		var cur uint32
		at := time.Duration(0)
		for step := 0; step < 40_000; step++ {
			at += time.Duration(rng.Intn(3)) * time.Millisecond
			num := cur + uint32(rng.Intn(12)) - 4
			switch r := rng.Intn(1000); {
			case r < 5:
				num = cur + 1<<20 + uint32(rng.Intn(3))<<12 // far ahead: collides once the ring is large
			case r < 8:
				num = rng.Uint32()
			case r < 60:
				cur++
			}
			total := uint16(1 + int(num)%90)
			index := uint16(rng.Intn(int(total)))
			switch r := rng.Intn(400); {
			case r == 0:
				index = total + uint16(rng.Intn(200)) // forged past the total
			case r == 1:
				total = 0
			}
			pkt := mediaPacket(num, index, total, num%30 == 0, time.Duration(num)*33*time.Millisecond, rng.Intn(1200))
			switch op := rng.Intn(10); {
			case op < 7:
				got, gerr := d.Push(pkt, at)
				want, werr := ref.push(pkt, at)
				if gerr != werr || !sameFrame(got, want) {
					t.Fatalf("seed %d step %d: Push(%d/%d of %d) = %+v, %v; map %+v, %v", seed, step, index, total, num, got, gerr, want, werr)
				}
				if got != nil && rng.Intn(20) == 0 {
					got.Repaired, want.Repaired = true, true
				}
			case op < 9:
				d.Delete(num)
				delete(ref.frames, num)
			default:
				if got, want := d.Frame(num), ref.frames[num]; !sameFrame(got, want) {
					t.Fatalf("seed %d step %d: Frame(%d) = %+v, map %+v", seed, step, num, got, want)
				}
			}
			if d.live+len(d.spill) != len(ref.frames) {
				t.Fatalf("seed %d step %d: Pending %d, map %d", seed, step, d.live+len(d.spill), len(ref.frames))
			}
			if step%5000 == 0 {
				// Drain what the stream left behind, the way a player's skips
				// would.
				for n, want := range ref.frames {
					if got := d.Frame(n); !sameFrame(got, want) {
						t.Fatalf("seed %d step %d: Frame(%d) = %+v, map %+v", seed, step, n, got, want)
					}
					if n+100 < cur || n > cur+100 {
						d.Delete(n)
						delete(ref.frames, n)
					}
				}
			}
		}
		t.Logf("seed %d: %d ring slots, %d spilled, %d pending", seed, len(d.ring), len(d.spill), d.live+len(d.spill))
	}
}

// TestDepacketizerSteadyStateAllocations: frames reassembled and deleted in
// order reuse their slots and bitsets.
func TestDepacketizerSteadyStateAllocations(t *testing.T) {
	d := NewDepacketizer()
	pkts := make([]*Packet, 88) // a frame at 25 Mbps
	for i := range pkts {
		pkts[i] = mediaPacket(0, uint16(i), uint16(len(pkts)), false, 0, 1100)
	}
	num := uint32(0)
	frame := func() {
		for _, p := range pkts {
			binary.BigEndian.PutUint32(p.Payload, num)
			if _, err := d.Push(p, time.Duration(num)*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		if num >= 3 {
			d.Delete(num - 3) // three frames pending, as behind a jitter buffer
		}
		num++
	}
	for i := 0; i < 100; i++ {
		frame()
	}
	if n := testing.AllocsPerRun(500, frame); n != 0 {
		t.Errorf("%.2f allocations per frame, want 0", n)
	}
	if len(d.ring) != depMinSlots || (d.live+len(d.spill)) != 3 {
		t.Errorf("%d slots, %d pending; want %d and 3", len(d.ring), d.live+len(d.spill), depMinSlots)
	}
}
