package bond

import (
	"slices"
	"testing"
	"time"
)

// collect builds a reorder buffer that appends released ext values.
func collect(deadline time.Duration, capacity int) (*Reorder, *[]int64) {
	out := &[]int64{}
	r := NewReorder(deadline, capacity, func(meta interface{}, _ time.Duration) {
		*out = append(*out, meta.(int64))
	})
	return r, out
}

func insert(r *Reorder, now time.Duration, exts ...int64) {
	for _, e := range exts {
		r.Insert(e, e, now)
	}
}

// TestReorderInOrder: in-order arrivals pass straight through.
func TestReorderInOrder(t *testing.T) {
	r, out := collect(0, 0)
	insert(r, 0, 10, 11, 12, 13)
	if len(*out) != 4 || (*out)[0] != 10 || (*out)[3] != 13 || len(r.buf) != 0 {
		t.Fatalf("out=%v len=%d", *out, len(r.buf))
	}
}

// TestReorderGapFill: a gap buffers followers until the missing packet
// arrives, then the whole run releases in order.
func TestReorderGapFill(t *testing.T) {
	r, out := collect(0, 0)
	insert(r, 0, 0, 2, 3, 4)
	if len(*out) != 1 || len(r.buf) != 3 {
		t.Fatalf("gap must hold followers: out=%v buffered=%d", *out, len(r.buf))
	}
	insert(r, time.Millisecond, 1)
	want := []int64{0, 1, 2, 3, 4}
	if len(*out) != 5 {
		t.Fatalf("out=%v want %v", *out, want)
	}
	for i, v := range want {
		if (*out)[i] != v {
			t.Fatalf("out=%v want %v", *out, want)
		}
	}
}

// TestReorderDeadline: the head-of-line wait is bounded; Tick releases
// past the gap and the late original is dropped and counted.
func TestReorderDeadline(t *testing.T) {
	r, out := collect(60*time.Millisecond, 0)
	var late []int64
	r.OnLate = func(ext int64, _ time.Duration) { late = append(late, ext) }
	insert(r, 0, 0, 2, 3)
	r.Tick(50 * time.Millisecond)
	if len(*out) != 1 {
		t.Fatal("deadline must not fire early")
	}
	r.Tick(60 * time.Millisecond)
	if !slices.Equal(*out, []int64{0, 2, 3}) || r.DeadlineReleases != 1 {
		t.Fatalf("deadline release wrong: out=%v releases=%d", *out, r.DeadlineReleases)
	}
	// Seq 1's slot is gone: arriving now is a late drop.
	insert(r, 70*time.Millisecond, 1)
	if r.Late != 1 || len(late) != 1 || late[0] != 1 || len(*out) != 3 {
		t.Fatalf("late drop wrong: Late=%d hook=%v", r.Late, late)
	}
}

// TestReorderCap: overflow force-releases the oldest run instead of
// growing without bound.
func TestReorderCap(t *testing.T) {
	r, out := collect(time.Hour, 4)
	insert(r, 0, 0) // next=1
	for ext := int64(2); ext < 8; ext++ {
		insert(r, 0, ext)
	}
	if len(r.buf) > 4 {
		t.Fatalf("cap breached: %d buffered", len(r.buf))
	}
	if r.CapReleases == 0 || len(*out) < 3 {
		t.Fatalf("cap must force releases: out=%v releases=%d", *out, r.CapReleases)
	}
	for i := 1; i < len(*out); i++ {
		if (*out)[i] <= (*out)[i-1] {
			t.Fatalf("release order broken: %v", *out)
		}
	}
}

// TestReorderDupAndFlush: duplicates of a buffered packet are refused and
// not counted late; Flush drains everything at run end.
func TestReorderDupAndFlush(t *testing.T) {
	r, out := collect(time.Hour, 0)
	insert(r, 0, 0, 2)
	for i := 0; i < 2; i++ {
		if r.Insert(2, int64(2), 0) {
			t.Fatalf("copy %d of a buffered packet was taken", i+1)
		}
	}
	if r.Late != 0 || len(r.buf) != 1 {
		t.Fatalf("late=%d len=%d", r.Late, len(r.buf))
	}
	r.Flush(time.Second)
	if len(*out) != 2 || len(r.buf) != 0 {
		t.Fatalf("flush wrong: out=%v", *out)
	}
}

// FuzzReorderInsert feeds arbitrary byte-derived sequences of inserts and
// ticks and checks the buffer's invariants: releases strictly increase,
// the cap holds, nothing is both released and still buffered, and Emit sees
// exactly the packets Insert reported taking — the count a holder's
// reference rides on.
func FuzzReorderInsert(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{5, 4, 3, 2, 1, 0})
	f.Add([]byte{0, 200, 1, 200, 2, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		var released []int64
		r := NewReorder(60*time.Millisecond, 16, func(meta interface{}, _ time.Duration) {
			released = append(released, meta.(int64))
		})
		now := time.Duration(0)
		taken := 0
		for i, b := range data {
			switch {
			case b >= 250: // occasional clock jump past the deadline
				now += 70 * time.Millisecond
				r.Tick(now)
			default:
				now += time.Millisecond
				// Small offsets exercise reordering, dups and lateness.
				ext := int64(i) + int64(b%32) - 16
				if ext < 0 {
					ext = -ext
				}
				if r.Insert(ext, ext, now) {
					taken++
				}
			}
			if len(r.buf) > 16 {
				t.Fatalf("cap breached: %d", len(r.buf))
			}
		}
		r.Flush(now)
		if len(r.buf) != 0 {
			t.Fatalf("flush left %d buffered", len(r.buf))
		}
		if len(released) != taken {
			t.Fatalf("%d packets taken, %d emitted", taken, len(released))
		}
		seen := make(map[int64]bool, len(released))
		for i, v := range released {
			if i > 0 && v <= released[i-1] {
				t.Fatalf("releases not strictly increasing at %d: %v", i, released)
			}
			if seen[v] {
				t.Fatalf("double release of %d", v)
			}
			seen[v] = true
		}
	})
}
