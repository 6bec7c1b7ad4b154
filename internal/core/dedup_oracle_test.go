package core

import (
	"math/rand"
	"testing"
)

// mapDedup is the bond deduplicator as it stood before the ring: extended
// sequences in a map, the eviction cursor deleting every aged key one by
// one as the highest sequence advances.
type mapDedup struct {
	started bool
	highest int64
	evict   int64
	seen    map[int64]bool
}

func (d *mapDedup) extend(seq uint16) int64 {
	if !d.started {
		return int64(seq)
	}
	return d.highest + int64(int16(seq-uint16(d.highest)))
}

func (d *mapDedup) note(ext int64) {
	d.seen[ext] = true
	if !d.started {
		d.started = true
		d.highest = ext
		d.evict = ext - dedupHorizon
	} else if ext > d.highest {
		d.highest = ext
	}
	for lo := d.highest - dedupHorizon; d.evict < lo; d.evict++ {
		delete(d.seen, d.evict)
	}
}

func (d *mapDedup) DuplicateExt(seq uint16) (ext int64, dup bool) {
	ext = d.extend(seq)
	if d.started && ext < d.evict {
		return ext, true
	}
	if d.seen[ext] {
		return ext, true
	}
	d.note(ext)
	return ext, false
}

func (d *mapDedup) Mark(seq uint16) {
	ext := d.extend(seq)
	if d.started && ext < d.evict {
		return
	}
	d.note(ext)
}

// TestDedupMatchesMapOracle feeds the ring and the map it replaced the same
// stream — a sequence that advances through more than three 16-bit wraps
// with each packet's copies arriving reordered by up to twice the horizon,
// duplicated, skipped, or announced by Mark first, plus the occasional jump
// of up to half the sequence space — and requires the same (ext, dup)
// answer for every packet. Each start exercises a different first sequence,
// including zero (an empty slot must not read as "sequence 0 seen") and one
// whose early reordering yields negative extended sequences.
func TestDedupMatchesMapOracle(t *testing.T) {
	for _, start := range []uint16{0, 3, 40_000, 65_535} {
		rng := rand.New(rand.NewSource(int64(start) + 1))
		got, ref := newMultipathDedup(), &mapDedup{seen: map[int64]bool{}}
		dups := 0
		feed := func(seq uint16) {
			if rng.Intn(10) == 0 {
				got.Mark(seq)
				ref.Mark(seq)
				return
			}
			ge, gd := got.DuplicateExt(seq)
			we, wd := ref.DuplicateExt(seq)
			if ge != we || gd != wd {
				t.Fatalf("start %d: DuplicateExt(%d) = (%d, %v), map reference (%d, %v)", start, seq, ge, gd, we, wd)
			}
			if gd {
				dups++
			}
		}
		head := start
		for i := 0; i < 4<<16; i++ {
			switch r := rng.Intn(1000); {
			case r < 700: // the next packet, first copy
				feed(head)
				head++
			case r < 999: // another path's copy, a late one, or one long past the horizon
				back := rng.Intn(64)
				if rng.Intn(20) == 0 {
					back = rng.Intn(2 * dedupHorizon)
				}
				feed(head - uint16(back))
			default: // a burst lost on every path: the stream jumps ahead
				head += uint16(rng.Intn(1 << 15))
			}
		}
		if got.highest != ref.highest || got.floor() != ref.evict {
			t.Errorf("start %d: highest/cursor %d/%d, map reference %d/%d", start, got.highest, got.floor(), ref.highest, ref.evict)
		}
		if got.highest < 3<<16 || dups == 0 {
			t.Errorf("start %d: stream too tame: highest %d, %d duplicates", start, got.highest, dups)
		}
	}
}
