package repair

import (
	"testing"
	"time"

	"rpivideo/internal/metrics"
	"rpivideo/internal/rtp"
)

// cacheLoad is the sender side of a steady 1 kpkt/s stream: every packet is
// stored, and one in a hundred is NACKed 60 ms (60 packets) later. The
// packets are made once and reused by sequence number, so a step allocates
// only what the cache itself does.
type cacheLoad struct {
	c    *Cache
	pkts []rtp.Packet
	seq  uint16
	now  time.Duration
	hits int
}

// warmCache runs 70 s of load: past a 16-bit wrap, the table and the FIFO
// at their steady sizes.
func warmCache() *cacheLoad {
	l := &cacheLoad{c: NewCache(DefaultConfig()), pkts: make([]rtp.Packet, 1<<16), seq: 1}
	for i := range l.pkts {
		l.pkts[i] = rtp.Packet{Header: rtp.Header{SequenceNumber: uint16(i)}, VirtualPayloadLen: 1150}
	}
	for i := 0; i < 70_000; i++ {
		l.step()
	}
	return l
}

func (l *cacheLoad) step() {
	l.now += time.Millisecond
	l.c.Store(&l.pkts[l.seq], l.now)
	if l.seq%100 == 0 && l.c.Lookup(l.seq-60, l.now) != nil {
		l.hits++
	}
	l.seq++
}

// BenchmarkCacheStoreLookup is one packet through the retransmission cache:
// a Store with its eviction, and a hundredth of a Lookup.
func BenchmarkCacheStoreLookup(b *testing.B) {
	l := warmCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.step()
	}
}

// TestCacheSteadyStateAllocations pins the cache at zero allocations per
// packet once warm: entries live in the table by value and the FIFO slides
// down in place.
func TestCacheSteadyStateAllocations(t *testing.T) {
	l := warmCache()
	if n := testing.AllocsPerRun(5000, l.step); n != 0 {
		t.Errorf("Store+Lookup allocate %.3f times per packet, want 0", n)
	}
	// 400 ms of a 1 kpkt/s stream is live, every NACK hit, nothing missed.
	if l.c.Len() != 401 || l.hits != 750 || l.c.Misses != 0 || l.c.slots.Cap() != 512 {
		t.Errorf("load is not the steady state it claims: %d live in %d slots, %d hits, %d misses",
			l.c.Len(), l.c.slots.Cap(), l.hits, l.c.Misses)
	}
}

// detectorLoad is the receiver side of a steady 1 kpkt/s stream that loses
// one packet in fifty: every arrival goes through OnPacket, the scheduler
// ticks every 10 ms, and the retransmission of each NACKed loss arrives at
// the next tick.
type detectorLoad struct {
	d      *Detector
	seq    uint16
	now    time.Duration
	nacked []uint16
	heals  metrics.Sketch // one loss-to-repair time per retransmission heal
}

// warmDetector runs 70 s of load: past a 16-bit wrap, with the table and
// the order slice at their steady sizes.
func warmDetector() *detectorLoad {
	l := &detectorLoad{d: NewDetector(DefaultConfig())}
	l.d.SetNackRTTHist(&l.heals)
	for i := 0; i < 70_000; i++ {
		l.step()
	}
	return l
}

func (l *detectorLoad) step() {
	l.now += time.Millisecond
	l.seq++
	if l.seq%50 == 0 {
		l.seq++ // lost
	}
	l.d.OnPacket(l.seq, l.now)
	if l.now%(10*time.Millisecond) == 0 {
		for _, s := range l.nacked {
			l.d.OnRepair(s, l.now)
		}
		l.nacked = l.d.AppendTick(l.nacked[:0], l.now)
	}
}

// BenchmarkDetectorCycle is one packet through the loss detector: an
// OnPacket, and a tenth of a tick with its repairs.
func BenchmarkDetectorCycle(b *testing.B) {
	l := warmDetector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.step()
	}
}

// TestDetectorSteadyStateAllocations pins the detector at zero allocations
// per packet once warm, losses, NACKs and repairs included: loss records
// live in the table by value and each tick compacts the order in place.
func TestDetectorSteadyStateAllocations(t *testing.T) {
	l := warmDetector()
	repaired := l.heals.N()
	// One unmeasured call, then every allocation of 5 000 packets: growth
	// amortized over many packets counts too.
	n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 5000; i++ {
			l.step()
		}
	})
	if n != 0 {
		t.Errorf("OnPacket+AppendTick+OnRepair allocate %.0f times in 5 000 packets, want 0", n)
	}
	// Every loss is NACKed once and healed by its retransmission.
	if l.heals.N()-repaired < 180 || l.d.Abandoned != 0 || l.d.Late != 0 || l.d.slots.Len() > 1 {
		t.Errorf("load is not the steady state it claims: %d repaired, %d abandoned, %d late, %d pending",
			l.heals.N()-repaired, l.d.Abandoned, l.d.Late, l.d.slots.Len())
	}
}
