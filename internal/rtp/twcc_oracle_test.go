package rtp

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// flatTWCCRecorder is the recorder the arrival ring replaced: a table over
// the whole 16-bit sequence space with an occupancy bitset, 512 KB per
// receiver whatever its traffic.
type flatTWCCRecorder struct {
	SenderSSRC, MediaSSRC uint32

	started          bool
	nextSeq, lastSeq uint16
	fbCount          uint8

	arrivals [1 << 16]time.Duration
	have     [1 << 16 / 64]uint64
	pending  int

	fb TWCC
}

func (r *flatTWCCRecorder) Record(seq uint16, at time.Duration) {
	if !r.started {
		r.started = true
		r.nextSeq = seq
		r.lastSeq = seq
	} else if seqLess(seq, r.nextSeq) {
		return
	} else if seqLess(r.lastSeq, seq) {
		r.lastSeq = seq
	}
	if w, b := seq/64, uint64(1)<<(seq%64); r.have[w]&b == 0 {
		r.have[w] |= b
		r.arrivals[seq] = at
		r.pending++
	}
}

func (r *flatTWCCRecorder) Flush() *TWCC {
	if !r.started {
		return nil
	}
	n := int(r.lastSeq-r.nextSeq) + 1
	if n <= 0 || r.pending == 0 {
		return nil
	}
	fb := &r.fb
	fb.SenderSSRC, fb.MediaSSRC, fb.BaseSeq, fb.FbPktCount = r.SenderSSRC, r.MediaSSRC, r.nextSeq, r.fbCount
	r.fbCount++
	fb.Packets = fb.Packets[:0]
	seq := r.nextSeq
	for i := 0; i < n; i++ {
		if w, b := seq/64, uint64(1)<<(seq%64); r.have[w]&b != 0 {
			fb.Packets = append(fb.Packets, Arrival{Received: true, At: r.arrivals[seq]})
			r.have[w] &^= b
			r.pending--
		} else {
			fb.Packets = append(fb.Packets, Arrival{})
		}
		seq++
	}
	r.nextSeq = seq
	return fb
}

// sameFeedback reports whether two Flush results are equal: both nil, or
// the same header fields and per-packet arrivals.
func sameFeedback(a, b *TWCC) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.SenderSSRC == b.SenderSSRC && a.MediaSSRC == b.MediaSSRC && a.BaseSeq == b.BaseSeq &&
		a.FbPktCount == b.FbPktCount && slices.Equal(a.Packets, b.Packets)
}

// checkTWCCProgram runs one arrival program through the ring recorder and
// the flat oracle and fails at the first Flush they disagree on. A program
// is read three bytes at a time — an opcode and two operand bytes:
//
//	op%8 == 0  Flush
//	op%8 ∈ 1–3 the last number plus 0–3 (0 is a duplicate)
//	op%8 == 4  the last number minus 0–255 (a reorder)
//	op%8 == 5  the last number plus up to 32 767 (an outage)
//	op%8 == 6  any number at all
//	op%8 == 7  up to four numbers before the open range (late)
//
// Each arrival takes the clock 0–25 ms forward.
func checkTWCCProgram(t *testing.T, start uint16, prog []byte) {
	t.Helper()
	ring := NewTWCCRecorder(7, 9)
	flat := &flatTWCCRecorder{SenderSSRC: 7, MediaSSRC: 9}
	last, now := start, time.Duration(0)
	flush := func(step int) {
		t.Helper()
		if got, want := ring.Flush(), flat.Flush(); !sameFeedback(got, want) {
			t.Fatalf("step %d: ring Flush %+v, flat %+v", step, got, want)
		}
	}
	for i := 0; i+3 <= len(prog); i += 3 {
		op, a, b := prog[i], prog[i+1], prog[i+2]
		switch op % 8 {
		case 0:
			flush(i / 3)
			continue
		case 1, 2, 3:
			last += uint16(a % 4)
		case 4:
			last -= uint16(a)
		case 5:
			last += (uint16(a)<<8 | uint16(b)) & 0x7fff
		case 6:
			last = uint16(a)<<8 | uint16(b)
		case 7:
			last = flat.nextSeq - 1 - uint16(a%4)
		}
		now += time.Duration(b) * 100 * time.Microsecond
		ring.Record(last, now)
		flat.Record(last, now)
	}
	flush(len(prog) / 3)
	if ring.nextSeq != flat.nextSeq || ring.lastSeq != flat.lastSeq || ring.fbCount != flat.fbCount || ring.pending != flat.pending {
		t.Fatalf("end state: ring next %d last %d count %d pending %d, flat %d %d %d %d",
			ring.nextSeq, ring.lastSeq, ring.fbCount, ring.pending, flat.nextSeq, flat.lastSeq, flat.fbCount, flat.pending)
	}
}

// FuzzTWCCRecorder holds the arrival ring to the flat table it replaced:
// every Flush equal, through reorders, duplicates, late arrivals, outages
// and the 16-bit wrap.
func FuzzTWCCRecorder(f *testing.F) {
	f.Add(uint16(65530), []byte{1, 1, 0, 1, 1, 0, 1, 2, 0, 4, 3, 0, 0, 0, 0})                 // across the wrap, one lost
	f.Add(uint16(100), []byte{1, 1, 9, 1, 0, 9, 4, 2, 9, 0, 0, 0, 7, 1, 0, 1, 1, 9, 0, 0, 0}) // duplicate, reorder, late
	f.Add(uint16(0), []byte{1, 1, 0, 5, 0x7f, 0xff, 1, 1, 0, 0, 0, 0})                        // a 32 767 gap grows the ring
	f.Add(uint16(40000), []byte{1, 1, 0, 0, 0, 0, 5, 0x7f, 0xfe, 0, 0, 0, 6, 0xc0, 0x40, 0, 0, 0})
	// Half the space past an empty range: the arrival is kept but the range
	// does not reach it, so the next report spans all 65 536 numbers.
	f.Add(uint16(0), []byte{1, 0, 0, 0, 0, 0, 6, 0x80, 0x00, 0, 0, 0})
	f.Fuzz(func(t *testing.T, start uint16, prog []byte) {
		checkTWCCProgram(t, start, prog)
	})
}

// TestTWCCRecorderMatchesFlat runs random programs — mostly steady traffic
// with a flush every few dozen arrivals — through the same comparison, so
// tier-1 covers more than the fuzz seeds.
func TestTWCCRecorderMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for round := 0; round < 200; round++ {
		prog := make([]byte, 3*(1+rng.Intn(1000)))
		rng.Read(prog)
		for i := 0; i < len(prog); i += 3 {
			switch r := rng.Intn(100); {
			case r < 80:
				prog[i] = 1 // steady traffic
			case r < 85:
				prog[i] = 0
			}
		}
		checkTWCCProgram(t, uint16(rng.Intn(1<<16)), prog)
	}
}

// TestTWCCRingHoldsOneInterval: a recorder flushed every 50 ms at ≈ 25 Mbps
// holds a ring of one interval's packets, not the 16-bit space, and an
// outage's arrivals grow it only as far as they reach.
func TestTWCCRingHoldsOneInterval(t *testing.T) {
	r := NewTWCCRecorder(1, 2)
	seq, now := uint16(65000), time.Duration(0)
	for i := 0; i < 1000; i++ { // 50 s, through the wrap
		twccInterval(r, &seq, &now)
		r.Flush()
	}
	if len(r.arrivals) != 128 || len(r.have) != 2 {
		t.Fatalf("ring of %d slots (%d words) after 104-packet intervals, want 128 (2)", len(r.arrivals), len(r.have))
	}
	r.Record(seq+2000, now)
	if len(r.arrivals) != 2048 {
		t.Fatalf("an arrival 2 000 ahead grew the ring to %d slots, want 2048", len(r.arrivals))
	}
}
