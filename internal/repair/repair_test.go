package repair

import (
	"testing"
	"time"

	"rpivideo/internal/obs"
	"rpivideo/internal/rtp"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// tickUntil drives the scheduler at 1 ms granularity and returns the times
// (in ms) at which each NACK for the watched seq fired.
func tickUntil(d *Detector, seq uint16, until time.Duration) []int {
	var fired []int
	for now := time.Duration(0); now <= until; now += time.Millisecond {
		for _, s := range d.Tick(now) {
			if s == seq {
				fired = append(fired, int(now/time.Millisecond))
			}
		}
	}
	return fired
}

func TestDetectorIgnoresReorderBelowTolerance(t *testing.T) {
	d := NewDetector(DefaultConfig()) // tolerance 2
	d.OnPacket(0, 0)
	d.OnPacket(1, 0)
	d.OnPacket(3, 0) // gap: 2 missing, one arrival past it
	if got := d.Tick(time.Second); len(got) != 0 {
		t.Fatalf("NACK fired below reorder tolerance: %v", got)
	}
	d.OnPacket(2, ms(5)) // the reordered original shows up
	if d.Late != 1 || d.slots.Len() != 0 {
		t.Fatalf("late arrival not healed: late=%d pending=%d", d.Late, d.slots.Len())
	}
	if got := tickUntil(d, 2, time.Second); len(got) != 0 {
		t.Fatalf("spurious NACKs for a healed gap: %v", got)
	}
	if d.Abandoned != 0 {
		t.Fatalf("counters polluted: %+v", d)
	}
}

func TestDetectorBackoffSequence(t *testing.T) {
	// Constants: nackDelay 10ms, initialRTT 80ms, factor 1.5, maxRetries 3.
	// Expected NACKs: 10ms, then +120ms, then +240ms; abandon 480ms after
	// the last (850ms) when the final timer expires unanswered.
	d := NewDetector(DefaultConfig())
	d.OnPacket(0, 0)
	d.OnPacket(2, 0) // seq 1 missing
	d.OnPacket(3, 0) // tolerance met
	fired := tickUntil(d, 1, time.Second)
	want := []int{10, 130, 370}
	if len(fired) != len(want) {
		t.Fatalf("NACK times %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("NACK times %v, want %v", fired, want)
		}
	}
	if d.Abandoned != 1 || d.slots.Len() != 0 {
		t.Fatalf("retry cap did not abandon: abandoned=%d pending=%d",
			d.Abandoned, d.slots.Len())
	}
	// Abandonment is the hand-off to the PLI path: the loss is forgotten,
	// so even the real retransmission arriving now is spurious.
	if d.OnRepair(1, time.Second) {
		t.Fatal("abandoned loss accepted a repair")
	}
}

func TestDetectorRTTAdaptation(t *testing.T) {
	d := NewDetector(DefaultConfig())
	d.OnPacket(0, 0)
	d.OnPacket(2, 0)
	d.OnPacket(3, 0)
	if got := d.Tick(ms(10)); len(got) != 1 || got[0] != 1 {
		t.Fatalf("first NACK: %v", got)
	}
	if !d.OnRepair(1, ms(50)) { // 40ms after the NACK
		t.Fatal("repair rejected")
	}
	if d.srtt != ms(40) {
		t.Fatalf("first RTT sample not adopted: %v", d.srtt)
	}
	// Second loss, second sample: EWMA 7/8 old + 1/8 new.
	d.OnPacket(5, ms(60))
	d.OnPacket(6, ms(60))
	if got := d.Tick(ms(70)); len(got) != 1 || got[0] != 4 {
		t.Fatalf("second NACK: %v", got)
	}
	if !d.OnRepair(4, ms(70+120)) {
		t.Fatal("second repair rejected")
	}
	if want := ms(40) + (ms(120)-ms(40))/8; d.srtt != want {
		t.Fatalf("EWMA RTT %v, want %v", d.srtt, want)
	}
	// A duplicate of an already-healed seq is spurious.
	if d.OnRepair(4, ms(200)) {
		t.Fatal("duplicate repair accepted")
	}
}

func TestDetectorWrapAroundGap(t *testing.T) {
	d := NewDetector(DefaultConfig())
	d.OnPacket(65534, 0)
	d.OnPacket(1, 0) // 65535 and 0 missing across the wrap
	d.OnPacket(2, 0)
	d.OnPacket(3, 0)
	got := d.Tick(ms(10))
	if len(got) != 2 || got[0] != 65535 || got[1] != 0 {
		t.Fatalf("wrap gap NACKs %v, want [65535 0]", got)
	}
}

func TestDetectorOutageGuardAbandonsDeadSpan(t *testing.T) {
	d := NewDetector(DefaultConfig()) // outageGuard = cacheAge = 400ms
	d.OnPacket(0, 0)
	d.OnPacket(1, ms(10))
	// The link goes dead; the next arrival reveals a 100-packet span a
	// blackout later. The whole span must degrade to the PLI path.
	d.OnPacket(102, ms(10+2000))
	if d.slots.Len() != 0 || d.Abandoned != 100 {
		t.Fatalf("dead span chased: pending=%d abandoned=%d", d.slots.Len(), d.Abandoned)
	}
	if got := tickUntil(d, 50, ms(3000)); len(got) != 0 {
		t.Fatalf("NACKs fired for an abandoned span: %v", got)
	}
	// An ordinary burst inside a live stream is still chased.
	d.OnPacket(103, ms(2020))
	d.OnPacket(110, ms(2050)) // 6 missing, 30ms silence — well under guard
	if d.slots.Len() != 6 {
		t.Fatalf("live burst not tracked: pending=%d", d.slots.Len())
	}
}

func TestDetectorPendingBound(t *testing.T) {
	d := NewDetector(DefaultConfig())
	d.maxPending = 4
	d.OnPacket(0, 0)
	d.OnPacket(11, 0) // seqs 1..10 missing
	if d.slots.Len() != 4 || d.Abandoned != 6 {
		t.Fatalf("pending=%d abandoned=%d, want 4/6", d.slots.Len(), d.Abandoned)
	}
	// The survivors are the newest losses.
	d.OnPacket(12, 0)
	got := d.Tick(ms(10))
	if len(got) != 4 || got[0] != 7 || got[3] != 10 {
		t.Fatalf("surviving NACKs %v, want [7 8 9 10]", got)
	}
}

// TestDetectorGapBeyondPendingBound drives forward gaps larger than
// maxPending and compares with the loop OnPacket had before: one record per
// skipped sequence number, each opened by add only to be evicted again. The
// totals, the survivors and the evictions of older losses must be the
// same; what changes is that the excess costs one counter bump and one
// trace event instead of a record each.
func TestDetectorGapBeyondPendingBound(t *testing.T) {
	for _, delta := range []uint16{9001, 0x7fff} { // 9 000 skipped; the largest forward jump
		prime := func(tr *obs.Tracer) *Detector {
			d := NewDetector(DefaultConfig()) // maxPending 8192
			d.SetTracer(tr)
			d.OnPacket(65000, 0)
			d.OnPacket(65004, ms(1)) // three older losses for the gap to evict
			return d
		}
		seq := uint16(65004) + delta // across the 16-bit wrap

		tr := obs.New(0)
		d := prime(tr)
		d.OnPacket(seq, ms(2))

		ref := prime(nil)
		ref.arrivals++
		for s := ref.highest + 1; s != seq; s++ {
			ref.add(s, ms(2))
		}
		ref.highest = seq

		skipped := int(delta) - 1
		if d.Abandoned != ref.Abandoned || d.Abandoned != 3+skipped-8192 {
			t.Fatalf("gap %d: abandoned %d, the per-sequence loop %d, want %d", skipped, d.Abandoned, ref.Abandoned, 3+skipped-8192)
		}
		if d.slots.Len() != 8192 || d.order.Len() != 8192 || ref.slots.Len() != 8192 {
			t.Fatalf("gap %d: pending %d (%d records), the per-sequence loop %d, want 8192", skipped, d.slots.Len(), d.order.Len(), ref.slots.Len())
		}
		d.OnPacket(seq+1, ms(3)) // the second arrival past the gap: NACK-eligible
		ref.OnPacket(seq+1, ms(3))
		got, want := d.Tick(ms(20)), ref.Tick(ms(20))
		if len(got) != 8192 || got[0] != seq-8192 || got[8191] != seq-1 {
			t.Fatalf("gap %d: %d survivors %d..%d, want the newest 8192 (%d..%d)", skipped, len(got), got[0], got[len(got)-1], seq-8192, seq-1)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("gap %d: survivor %d is %d, the per-sequence loop kept %d", skipped, i, got[i], want[i])
			}
		}
		// One summary for the excess, then the three older losses evicted
		// one by one as before.
		evs := tr.Events()
		if len(evs) != 4 || evs[0].Kind != obs.KindRepairAbandoned || evs[0].Seq != 65005 || evs[0].Aux != int64(skipped-8192) {
			t.Fatalf("gap %d: %d trace events, first %+v; want a summary at 65005 for %d and 3 evictions", skipped, len(evs), evs[0], skipped-8192)
		}
	}
}

func mkPackets(n int) []*rtp.Packet {
	pk := rtp.NewPacketizer(1, 96, 1200)
	var out []*rtp.Packet
	for f := 0; len(out) < n; f++ {
		out = append(out, pk.Packetize(rtp.FrameInfo{Num: uint32(f), Size: 3000})...)
	}
	return out[:n]
}

func TestCacheEvictionByBytes(t *testing.T) {
	pkts := mkPackets(6)
	c := NewCache(DefaultConfig())
	c.maxBytes = 3 * pkts[0].MarshalSize()
	for _, p := range pkts {
		c.Store(p, 0)
	}
	if c.bytes > c.maxBytes {
		t.Fatalf("cache holds %d bytes, bound %d", c.bytes, c.maxBytes)
	}
	if c.Lookup(pkts[0].Header.SequenceNumber, 0) != nil {
		t.Fatal("oldest packet survived byte eviction")
	}
	if c.Lookup(pkts[5].Header.SequenceNumber, 0) == nil {
		t.Fatal("newest packet missing")
	}
	if c.Misses != 1 || c.Len() >= len(pkts) {
		t.Fatalf("misses=%d, %d of %d packets kept", c.Misses, c.Len(), len(pkts))
	}
}

func TestCacheEvictionByAge(t *testing.T) {
	pkts := mkPackets(3)
	c := NewCache(DefaultConfig())
	c.maxAge = time.Second
	c.Store(pkts[0], 0)
	c.Store(pkts[1], ms(800))
	// Lookup past the age bound fails even before eviction runs.
	if c.Lookup(pkts[0].Header.SequenceNumber, ms(1200)) != nil {
		t.Fatal("aged packet resent")
	}
	if c.Lookup(pkts[1].Header.SequenceNumber, ms(1200)) == nil {
		t.Fatal("fresh packet missing")
	}
	// Storing later sweeps the aged entries out.
	c.Store(pkts[2], ms(2000))
	if c.Len() != 1 || c.bytes != pkts[2].MarshalSize() {
		t.Fatalf("after age sweep: len=%d bytes=%d", c.Len(), c.bytes)
	}
}

func TestCacheResendCap(t *testing.T) {
	pkts := mkPackets(1)
	c := NewCache(DefaultConfig()) // maxRetries 3
	c.Store(pkts[0], 0)
	seq := pkts[0].Header.SequenceNumber
	for i := 0; i < maxRetries; i++ {
		if c.Lookup(seq, 0) == nil {
			t.Fatalf("lookup %d denied below the cap", i+1)
		}
	}
	if c.Lookup(seq, 0) != nil {
		t.Fatal("resend cap not enforced")
	}
}

func TestBudgetExhaustionDeniesThenRecovers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BudgetFraction = 0.1
	cfg.BudgetBurst = 10_000
	b := NewBudget(cfg)
	const rate = 8e6 // accrues 100 KB/s of repair allowance

	if !b.Allow(0, 8000, rate) {
		t.Fatal("burst denied")
	}
	if b.Allow(0, 8000, rate) {
		t.Fatal("empty bucket granted")
	}
	if b.Denied != 1 {
		t.Fatalf("Denied=%d", b.Denied)
	}
	// 100ms at 100KB/s refills 10KB (capped at burst).
	if !b.Allow(ms(100), 8000, rate) {
		t.Fatal("refilled bucket denied")
	}
	if spent := 16000; float64(spent) > b.Accrued() { // the two grants
		t.Fatalf("invariant violated: spent %d > accrued %.0f", spent, b.Accrued())
	}
	if got := b.SpendRate(ms(100)); got != 16000*8 {
		t.Fatalf("SpendRate=%v, want %v", got, 16000*8)
	}
	// The trailing window forgets old spend.
	if got := b.SpendRate(ms(1400)); got != 0 {
		t.Fatalf("stale SpendRate=%v", got)
	}
}

func TestBudgetInvariantUnderPressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BudgetFraction = 0.05
	cfg.BudgetBurst = 4096
	b := NewBudget(cfg)
	granted := 0
	for i := 0; i < 10_000; i++ {
		now := time.Duration(i) * time.Millisecond
		if b.Allow(now, 1200, 2e6) {
			granted++
		}
		if spent := 1200 * granted; float64(spent) > b.Accrued() {
			t.Fatalf("at %v: spent %d > accrued %.0f", now, spent, b.Accrued())
		}
	}
	if granted == 0 || b.Denied == 0 {
		t.Fatalf("pressure test degenerate: granted=%d denied=%d", granted, b.Denied)
	}
}
