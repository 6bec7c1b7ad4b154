package ring

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// pkt stands for a queued packet: a reference the queue must not keep once
// the packet left, and a payload to check order by.
type pkt struct {
	meta any
	size int
}

// TestPktRingFIFO pushes and pops across several growth and wrap cycles,
// checking strict FIFO order and slot reuse.
func TestPktRingFIFO(t *testing.T) {
	var r Queue[pkt]
	next, want := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			r.Push(pkt{size: next})
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			q := r.Pop()
			if q.size != want {
				t.Fatalf("pop = %d, want %d", q.size, want)
			}
			want++
		}
	}
	// Interleave so head walks around the buffer while it grows.
	push(3)
	pop(2)
	push(20) // forces growth with a non-zero head
	pop(10)
	push(40) // second growth, head mid-buffer
	pop(r.Len())
	if r.Len() != 0 {
		t.Fatalf("len = %d after draining", r.Len())
	}
	push(5)
	pop(5)
	if next != want {
		t.Fatalf("pushed %d, popped %d", next, want)
	}
}

// TestPktRingTruncateAndAt exercises the in-place compaction pattern a
// link's stale flush uses: read via At(i), compact, Truncate.
func TestPktRingTruncateAndAt(t *testing.T) {
	var r Queue[pkt]
	for i := 0; i < 10; i++ {
		r.Push(pkt{size: i})
	}
	r.Pop()
	r.Pop() // head offset of 2: At(i) must account for it
	for i := 0; i < r.Len(); i++ {
		if r.At(i).size != i+2 {
			t.Fatalf("At(%d) = %d, want %d", i, r.At(i).size, i+2)
		}
	}
	// Keep only the even-sized entries, as the stale flush compacts.
	w := 0
	for i := 0; i < r.Len(); i++ {
		if q := *r.At(i); q.size%2 == 0 {
			*r.At(w) = q
			w++
		}
	}
	r.Truncate(w)
	if r.Len() != 4 {
		t.Fatalf("len = %d after truncate, want 4", r.Len())
	}
	for i, wantSize := 0, []int{2, 4, 6, 8}; i < r.Len(); i++ {
		if r.At(i).size != wantSize[i] {
			t.Fatalf("after truncate At(%d) = %d, want %d", i, r.At(i).size, wantSize[i])
		}
	}
}

// TestRingReuse: a queue emptied by Truncate(0), its holder's reset, keeps
// the buffer it grew to, holds none of its packets any more, and stays
// FIFO on it.
func TestRingReuse(t *testing.T) {
	var q Queue[pkt]
	for i := 0; i < 100; i++ {
		q.Push(pkt{meta: i, size: i})
	}
	q.Pop()
	grown := q.buf
	q.Truncate(0)
	if q.Len() != 0 || q.Cap() != len(grown) || len(grown) < 100 {
		t.Fatalf("after the reset: %d queued in %d slots, grown to %d", q.Len(), q.Cap(), len(grown))
	}
	for _, p := range grown {
		if p.meta != nil {
			t.Fatal("the reset queue still holds a packet of its last use")
		}
	}
	for i := 0; i < 3*len(grown); i++ {
		q.Push(pkt{size: i})
		if p := q.Pop(); p.size != i {
			t.Fatalf("pop = %d, want %d", p.size, i)
		}
	}
	if &q.buf[0] != &grown[0] {
		t.Fatal("the reset queue regrew its buffer")
	}
}

// queueOracle runs ops, two bytes each, on a Queue and on a slice and fails
// at the first difference. A queue it resets must hold no element the
// oracle has dropped.
func queueOracle(t *testing.T, ops []byte) {
	var q Queue[pkt]
	var want []pkt
	next := 0
	for len(ops) >= 2 {
		op, arg := ops[0], int(ops[1])
		ops = ops[2:]
		switch op % 6 {
		case 0, 1: // push up to 64 packets: growth comes quickly
			for i := 0; i <= arg%64; i++ {
				p := pkt{meta: &next, size: next}
				next++
				q.Push(p)
				want = append(want, p)
			}
		case 2: // pop up to arg+1
			for i := 0; i <= arg && len(want) > 0; i++ {
				if got := q.Pop(); got != want[0] {
					t.Fatalf("Pop = %d, want %d", got.size, want[0].size)
				}
				want = want[1:]
			}
		case 3: // write through At, then read every element back
			if len(want) > 0 {
				i := arg % len(want)
				q.At(i).size = -next
				want[i].size = -next
				next++
			}
		case 4: // truncate: keep arg out of 256 of the elements
			n := len(want) * arg / 256
			q.Truncate(n)
			want = want[:n]
		case 5: // start over: a new queue, or a reset one on its buffer
			if arg%2 == 0 {
				q = Queue[pkt]{}
				want = want[:0]
				break
			}
			grown := q.Cap()
			q.Truncate(0)
			want = want[:0]
			if q.Cap() != grown {
				t.Fatalf("the reset queue has %d slots, it grew to %d", q.Cap(), grown)
			}
		}
		if q.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", q.Len(), len(want))
		}
		if c := q.Cap(); c != 0 && (c < 16 || c&(c-1) != 0 || c < q.Len()) {
			t.Fatalf("%d slots for %d elements", c, q.Len())
		}
		for i, w := range want {
			if *q.At(i) != w {
				t.Fatalf("At(%d) = %d, want %d", i, q.At(i).size, w.size)
			}
		}
		// Every slot outside the live span is zero.
		for i := q.Len(); i < q.Cap(); i++ {
			if *q.At(i) != (pkt{}) {
				t.Fatalf("slot %d past the tail still holds %d", i, q.At(i).size)
			}
		}
	}
}

func FuzzQueue(f *testing.F) {
	f.Add([]byte{0, 20, 2, 5, 0, 40, 3, 7, 4, 128, 2, 255})
	f.Add([]byte{0, 100, 5, 1, 0, 200, 2, 50, 0, 60, 5, 1, 0, 255})
	f.Add([]byte{1, 15, 2, 15, 1, 15, 2, 3, 1, 30, 4, 0, 5, 0, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		queueOracle(t, ops)
	})
}

// TestQueueMatchesSlice runs the fuzz oracle on random programs.
func TestQueueMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 300; n++ {
		ops := make([]byte, 2*rng.Intn(200))
		rng.Read(ops)
		queueOracle(t, ops)
	}
}

// rec is a SeqTable record: a key copy to catch a record answered under the
// wrong key, and a counter to catch a stale one.
type rec struct {
	seq uint16
	gen int
}

// tableOracle runs one operation on t and the map oracle and fails at the
// first difference in what they answer.
func tableOracle(t *testing.T, tab *SeqTable[rec], want map[uint16]rec, op byte, seq uint16, gen int) {
	t.Helper()
	switch op % 4 {
	case 0, 1:
		v := rec{seq: seq, gen: gen}
		w, ok := want[seq]
		if old, oldOK := tab.Put(seq, v); oldOK != ok || old != w {
			t.Fatalf("Put(%d) replaced %+v, %v, map had %+v, %v", seq, old, oldOK, w, ok)
		}
		want[seq] = v
	case 2:
		w, ok := want[seq]
		if got, gotOK := tab.Delete(seq); gotOK != ok || got != w {
			t.Fatalf("Delete(%d) = %+v, %v, map had %+v, %v", seq, got, gotOK, w, ok)
		}
		delete(want, seq)
	case 3: // update in place through Get
		p := tab.Get(seq)
		if w, ok := want[seq]; !ok {
			if p != nil {
				t.Fatalf("Get(%d) = %+v, map has none", seq, *p)
			}
		} else {
			if p == nil || *p != w {
				t.Fatalf("Get(%d) = %v, map has %+v", seq, p, w)
			}
			p.gen, w.gen = gen, gen
			want[seq] = w
		}
	}
	if tab.Len() != len(want) {
		t.Fatalf("Len = %d, map holds %d", tab.Len(), len(want))
	}
}

// tableMatches checks every key of the 16-bit space against the map.
func tableMatches(t *testing.T, tab *SeqTable[rec], want map[uint16]rec) {
	t.Helper()
	for k := 0; k < 1<<16; k++ {
		p := tab.Get(uint16(k))
		w, ok := want[uint16(k)]
		if (p != nil) != ok || (ok && *p != w) {
			t.Fatalf("Get(%d) = %v, map has %+v (present %v)", k, p, w, ok)
		}
	}
	if c := tab.Cap(); c > 1<<16 || c&(c-1) != 0 {
		t.Fatalf("table grew to %d slots", c)
	}
}

// TestSeqTableMatchesMap drives a table and a map keyed by seq with the same
// random puts, gets and deletes: a window of live keys that starts at
// 65 530 and slides across many 16-bit wraps, re-puts of live keys, keys
// anywhere in the space (collisions, so the table doubles), and laps of the
// whole space between operations, after which a key names a record put
// 65 536 numbers earlier. Every answer must be the map's, and so must the
// whole space at checkpoints. It covers at once the repair cache, the loss
// detector and SCReAM's in-flight set, which hold their records here.
func TestSeqTableMatchesMap(t *testing.T) {
	for _, start := range []int{0, 256, 1 << 16} {
		var tab SeqTable[rec]
		if start > 0 {
			tab = MakeSeqTable[rec](start)
		}
		want := map[uint16]rec{}
		rng := rand.New(rand.NewSource(int64(start)))
		base := uint16(65530)
		wraps, laps := 0, 0
		for op := 0; op < 300_000; op++ {
			switch r := rng.Intn(1000); {
			case r < 900: // in the window
				tableOracle(t, &tab, want, byte(rng.Intn(4)), base+uint16(rng.Intn(600)), op)
			case r < 998: // anywhere
				tableOracle(t, &tab, want, byte(rng.Intn(4)), uint16(rng.Intn(1<<16)), op)
			default:
				// A lap of the whole space since the last operation: every
				// number of the window comes round again and is put anew
				// over the record still there.
				for k := base; k != base+600; k++ {
					tableOracle(t, &tab, want, 0, k, op)
				}
				laps++
			}
			if rng.Intn(8) == 0 {
				old := base
				base += uint16(1 + rng.Intn(64))
				if base < old {
					wraps++
				}
				// Retire what fell behind the window, as the holders do.
				for k := old - 600; k != base-600; k++ {
					tableOracle(t, &tab, want, 2, k, op)
				}
			}
			if rng.Intn(50_000) == 0 {
				tab.Clear()
				clear(want)
			}
			if op%20_000 == 0 {
				tableMatches(t, &tab, want)
			}
		}
		tableMatches(t, &tab, want)
		if wraps < 5 || laps < 100 || tab.Cap() < 1024 {
			t.Errorf("start %d: too tame: %d wraps, %d laps, %d slots", start, wraps, laps, tab.Cap())
		}
	}
}

// TestSeqTableReuse: MakeSeqTable allocates nothing until the first Put,
// and then its size; a table emptied by Clear, its holder's reset, keeps
// the slots it grew to, allocates nothing at its next Put, holds none of
// its records and answers as a map does.
func TestSeqTableReuse(t *testing.T) {
	var tab SeqTable[rec]
	if n := testing.AllocsPerRun(10, func() { tab = MakeSeqTable[rec](256) }); n != 0 || tab.Cap() != 0 {
		t.Fatalf("MakeSeqTable allocated %.0f times, took %d slots before a Put", n, tab.Cap())
	}
	for k := 0; k < 2000; k++ { // 0 and 256 share a slot of 256: the table grows
		tab.Put(uint16(k), rec{seq: uint16(k)})
	}
	grown := tab.Cap()
	if grown < 2048 {
		t.Fatalf("the table grew to %d slots, want at least 2048", grown)
	}
	if n := testing.AllocsPerRun(1, func() { tab.Clear(); tab.Put(7, rec{seq: 7}) }); n != 0 {
		t.Fatalf("a cleared table allocated %.0f times at its first Put", n)
	}
	tab.Clear()
	if tab.Len() != 0 || tab.Cap() != grown {
		t.Fatalf("after Clear: %d records in %d slots, want 0 in %d", tab.Len(), tab.Cap(), grown)
	}
	want := map[uint16]rec{}
	tableMatches(t, &tab, want)
	rng := rand.New(rand.NewSource(1))
	for op := 0; op < 20_000; op++ {
		tableOracle(t, &tab, want, byte(rng.Intn(4)), uint16(rng.Intn(1<<16)), op)
	}
	tableMatches(t, &tab, want)
}

func FuzzSeqTable(f *testing.F) {
	f.Add([]byte{0, 0xff, 0xfa, 0, 0x00, 0x05, 2, 0xff, 0xfa, 3, 0x00, 0x05})
	f.Add([]byte{0, 0, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 2, 0, 1, 3, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab SeqTable[rec]
		want := map[uint16]rec{}
		for i := 0; i+3 <= len(ops); i += 3 {
			tableOracle(t, &tab, want, ops[i], binary.BigEndian.Uint16(ops[i+1:]), i)
		}
		tableMatches(t, &tab, want)
	})
}
