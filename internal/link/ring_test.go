package link

import "testing"

// TestPktRingFIFO pushes and pops across several growth and wrap cycles,
// checking strict FIFO order and slot reuse.
func TestPktRingFIFO(t *testing.T) {
	var r ring[queued]
	next, want := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			r.push(queued{size: next})
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			q := r.pop()
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
	pop(r.len())
	if r.len() != 0 {
		t.Fatalf("len = %d after draining", r.len())
	}
	push(5)
	pop(5)
	if next != want {
		t.Fatalf("pushed %d, popped %d", next, want)
	}
}

// TestPktRingTruncateAndAt exercises the in-place compaction pattern
// dropStaleQueue uses: read via at(i), compact, truncate.
func TestPktRingTruncateAndAt(t *testing.T) {
	var r ring[queued]
	for i := 0; i < 10; i++ {
		r.push(queued{size: i})
	}
	r.pop()
	r.pop() // head offset of 2: at(i) must account for it
	for i := 0; i < r.len(); i++ {
		if r.at(i).size != i+2 {
			t.Fatalf("at(%d) = %d, want %d", i, r.at(i).size, i+2)
		}
	}
	// Keep only the even-sized entries, as dropStaleQueue compacts.
	w := 0
	for i := 0; i < r.len(); i++ {
		if q := *r.at(i); q.size%2 == 0 {
			*r.at(w) = q
			w++
		}
	}
	r.truncate(w)
	if r.len() != 4 {
		t.Fatalf("len = %d after truncate, want 4", r.len())
	}
	for i, wantSize := 0, []int{2, 4, 6, 8}; i < r.len(); i++ {
		if r.at(i).size != wantSize[i] {
			t.Fatalf("after truncate at(%d) = %d, want %d", i, r.at(i).size, wantSize[i])
		}
	}
}

// TestRingReuse: a ring that takes over a buffer starts empty on the one
// its predecessor grew to, zeroed, records every growth of its own there,
// and stays FIFO.
func TestRingReuse(t *testing.T) {
	var buf []queued
	var first ring[queued]
	first.reuse(&buf)
	for i := 0; i < 100; i++ {
		first.push(queued{meta: i, size: i})
	}
	first.pop()
	if len(buf) != len(first.buf) || len(buf) < 100 {
		t.Fatalf("recorded %d slots, the ring has %d", len(buf), len(first.buf))
	}
	var next ring[queued]
	next.reuse(&buf)
	if next.len() != 0 || len(next.buf) != len(buf) {
		t.Fatalf("after reuse: %d queued in %d slots", next.len(), len(next.buf))
	}
	for _, q := range buf {
		if q.meta != nil {
			t.Fatal("the reused buffer still holds a packet of the ring before")
		}
	}
	for i := 0; i < 3*len(buf); i++ {
		next.push(queued{size: i})
		if q := next.pop(); q.size != i {
			t.Fatalf("pop = %d, want %d", q.size, i)
		}
	}
	n := len(buf)
	for i := 0; i <= n; i++ {
		next.push(queued{size: i})
	}
	if len(buf) != 2*n || &buf[0] != &next.buf[0] {
		t.Fatalf("a growth past %d slots was not recorded: %d", n, len(buf))
	}
}
