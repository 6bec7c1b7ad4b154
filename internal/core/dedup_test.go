package core

import "testing"

// TestDedupSurvivesSeqWrap feeds two interleaved path copies of every
// sequence number through several full 16-bit wraps: every first copy must
// be accepted and every second copy suppressed. The pre-fix implementation
// keyed the seen-set by the raw uint16, so the first fresh packet after a
// wrap collided with its namesake from one wrap ago and was falsely flagged
// as a duplicate.
func TestDedupSurvivesSeqWrap(t *testing.T) {
	d := newMultipathDedup()
	const total = 3 * 65536 // three full wraps
	for i := 0; i < total; i++ {
		seq := uint16(i)
		if duplicate(d, seq) {
			t.Fatalf("fresh packet %d (seq %d) flagged as duplicate", i, seq)
		}
		if !duplicate(d, seq) {
			t.Fatalf("second path copy of packet %d (seq %d) not flagged", i, seq)
		}
	}
}

// TestDedupMemoryHardBound: the seen-set is a fixed ring, so the bound is
// constant memory — no packet, fresh, duplicate, below the cursor or Marked,
// allocates.
func TestDedupMemoryHardBound(t *testing.T) {
	d := newMultipathDedup()
	i := 0
	allocs := testing.AllocsPerRun(200_000, func() {
		duplicate(d, uint16(i))
		duplicate(d, uint16(i)) // the other path's copy
		duplicate(d, uint16(i-2*dedupHorizon))
		d.Mark(uint16(i + 1))
		i += 2
	})
	if allocs != 0 {
		t.Errorf("%.2f allocations per packet group, want 0", allocs)
	}
	if d.highest != int64(i-1) {
		t.Errorf("highest extended sequence %d after %d packets, want %d", d.highest, i, i-1)
	}
}

// TestDedupBelowHorizon: a copy older than the horizon reports as a
// duplicate (its slot is gone either way) and must not resurrect state.
func TestDedupBelowHorizon(t *testing.T) {
	d := newMultipathDedup()
	for i := 0; i < dedupHorizon+1000; i++ {
		duplicate(d, uint16(i))
	}
	before := *d
	// Sequence 100 is far below the cursor now.
	if !duplicate(d, 100) {
		t.Error("a below-horizon copy must report duplicate")
	}
	d.Mark(101)
	if *d != before {
		t.Error("below-horizon traffic changed the dedup state")
	}
}

// TestDedupReorderAcrossWrap checks the extended-sequence unwrapping on the
// slower path: a copy arriving shortly *behind* the wrap boundary must still
// map to its pre-wrap key and be recognized as a duplicate, while a fresh
// sequence just after the boundary must not.
func TestDedupReorderAcrossWrap(t *testing.T) {
	d := newMultipathDedup()
	// Walk up to just before the boundary.
	for i := 65530; i < 65536; i++ {
		if duplicate(d, uint16(i)) {
			t.Fatalf("seq %d duplicate on first sight", i)
		}
	}
	// Cross it.
	if duplicate(d, 0) || duplicate(d, 1) {
		t.Fatal("post-wrap sequences flagged as duplicates")
	}
	// The second path's copy of the post-wrap packet.
	if !duplicate(d, 0) {
		t.Fatal("second copy of post-wrap seq 0 not flagged")
	}
	if !duplicate(d, uint16(65531)) {
		t.Fatal("late pre-wrap copy of seq 65531 not recognized as duplicate")
	}
	// Mark (the RTX path) must land in the same key space.
	d.Mark(5)
	if !duplicate(d, 5) {
		t.Fatal("sequence Marked via the repair path not recognized as duplicate")
	}
}

// duplicate records seq and reports whether a copy was already delivered.
func duplicate(d *multipathDedup, seq uint16) bool {
	_, dup := d.DuplicateExt(seq)
	return dup
}
