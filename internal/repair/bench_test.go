package repair

import (
	"testing"
	"time"

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
	if l.c.Len() != 401 || l.hits != 750 || l.c.Misses != 0 || len(l.c.slots) != 512 {
		t.Errorf("load is not the steady state it claims: %d live in %d slots, %d hits, %d misses",
			l.c.Len(), len(l.c.slots), l.hits, l.c.Misses)
	}
}
