package core

import "math"

// multipathDedup suppresses the second copy of each packet on a bonded
// run. RTP sequence numbers are 16-bit and a six-minute flight at campaign
// bitrates wraps them many times, so deduplication is keyed by the
// *extended* (unwrapped, 64-bit) sequence: after a wrap, a fresh packet
// whose 16-bit sequence collides with one from exactly one wrap ago is a
// new key, not a false duplicate.
//
// The seen-set is a ring of dedupSlots extended sequences: ext is recorded
// iff seen[ext&dedupMask] == ext. The eviction cursor (floor) trails the
// highest extended sequence by dedupHorizon, and everything below it counts
// as aged out, so the live window [floor, highest] spans dedupHorizon+1
// sequences — fewer than there are slots. Two sequences in the window
// therefore never share a slot, and a slot still holding a value from below
// the cursor cannot alias: lookups refuse anything below the cursor before
// they read the ring, and the cursor only moves forward. Nothing is ever
// deleted and nothing allocated after construction. A copy arriving from
// *below* the cursor is beyond any plausible reorder window and reports as
// a duplicate: the player would discard it anyway, and answering fresh
// would double-count its slot.
type multipathDedup struct {
	started bool
	highest int64 // extended sequence of the newest packet seen
	seen    [dedupSlots]int64
}

// dedupHorizon is the reorder window, in sequences, that deduplication
// remembers below the highest sequence seen. At campaign packet rates
// (~2-3k pkt/s) 1<<13 sequences is several seconds — far beyond any path
// skew the bonded chains can produce.
const (
	dedupHorizon = 1 << 13
	dedupSlots   = 2 * dedupHorizon
	dedupMask    = dedupSlots - 1
)

func newMultipathDedup() *multipathDedup {
	d := &multipathDedup{}
	for i := range d.seen {
		d.seen[i] = math.MinInt64 // never an extended sequence
	}
	return d
}

// extend unwraps a 16-bit sequence to the extended sequence nearest the
// highest one seen (RFC 1982 serial-number arithmetic, like RTP's extended
// highest sequence number but without the jump limit).
func (d *multipathDedup) extend(seq uint16) int64 {
	if !d.started {
		return int64(seq)
	}
	return d.highest + int64(int16(seq-uint16(d.highest)))
}

// floor is the eviction cursor: every sequence below it has aged out.
func (d *multipathDedup) floor() int64 { return d.highest - dedupHorizon }

// note records ext as seen; a new highest drags the cursor along.
func (d *multipathDedup) note(ext int64) {
	d.seen[ext&dedupMask] = ext
	if !d.started || ext > d.highest {
		d.started = true
		d.highest = ext
	}
}

// DuplicateExt records seq, reporting its extended sequence and whether a
// copy was already delivered (or its slot already aged past the horizon).
func (d *multipathDedup) DuplicateExt(seq uint16) (ext int64, dup bool) {
	ext = d.extend(seq)
	if d.started && ext < d.floor() {
		return ext, true
	}
	if d.seen[ext&dedupMask] == ext {
		return ext, true
	}
	d.note(ext)
	return ext, false
}

// Mark records a sequence delivered through another channel (an RTX repair)
// so a late path copy is still recognized as a duplicate.
func (d *multipathDedup) Mark(seq uint16) {
	ext := d.extend(seq)
	if d.started && ext < d.floor() {
		return
	}
	d.note(ext)
}
