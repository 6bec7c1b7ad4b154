package repair

import (
	"math/rand"
	"testing"
	"time"

	"rpivideo/internal/rtp"
)

// mapCache is the retransmission store as it stood before the direct-mapped
// table: one heap entry per packet in a map keyed by the 16-bit sequence,
// eviction probing the map once per FIFO ref.
type mapCache struct {
	maxBytes int
	maxAge   time.Duration
	entries  map[uint16]*mapCacheEntry
	fifo     []fifoRef
	head     int
	bytes    int

	Stored, Evicted, Misses int
}

type mapCacheEntry struct {
	pkt      *rtp.Packet
	size     int
	storedAt time.Duration
	resends  int
}

func newMapCache(maxBytes int, maxAge time.Duration) *mapCache {
	return &mapCache{maxBytes: maxBytes, maxAge: maxAge, entries: make(map[uint16]*mapCacheEntry)}
}

func (c *mapCache) Store(pkt *rtp.Packet, now time.Duration) {
	seq := pkt.Header.SequenceNumber
	if old, ok := c.entries[seq]; ok {
		c.bytes -= old.size
		c.Evicted++
	}
	size := pkt.MarshalSize()
	c.entries[seq] = &mapCacheEntry{pkt: pkt, size: size, storedAt: now}
	c.fifo = append(c.fifo, fifoRef{seq: seq, storedAt: now})
	c.bytes += size
	c.Stored++
	c.evict(now)
}

func (c *mapCache) Lookup(seq uint16, now time.Duration) *rtp.Packet {
	e, ok := c.entries[seq]
	if !ok || now-e.storedAt > c.maxAge || e.resends >= maxRetries {
		c.Misses++
		return nil
	}
	e.resends++
	return e.pkt
}

func (c *mapCache) evict(now time.Duration) {
	for c.head < len(c.fifo) {
		ref := c.fifo[c.head]
		e, ok := c.entries[ref.seq]
		if !ok || e.storedAt != ref.storedAt {
			c.head++
			continue
		}
		if c.bytes <= c.maxBytes && now-e.storedAt <= c.maxAge {
			break
		}
		c.bytes -= e.size
		delete(c.entries, ref.seq)
		c.Evicted++
		c.head++
	}
	if c.head > len(c.fifo)/2 && c.head > 64 {
		c.fifo = append([]fifoRef(nil), c.fifo[c.head:]...)
		c.head = 0
	}
}

// TestCacheMatchesMapOracle drives the table cache and the map it replaced
// with the same random stores, lookups and clock steps — a sequence stream
// that wraps 16 bits several times, jumps, and re-stores numbers that are
// still live; clock steps from none to several cache ages — under an
// age-bound, a byte-bound and a mixed configuration. Every lookup result
// and every counter must agree after every operation.
func TestCacheMatchesMapOracle(t *testing.T) {
	for name, bound := range map[string]struct {
		bytes int
		age   time.Duration
	}{
		"age-bound":  {4 << 20, 400 * time.Millisecond},
		"byte-bound": {40_000, time.Hour},
		"mixed":      {300_000, 150 * time.Millisecond},
	} {
		t.Run(name, func(t *testing.T) {
			got, ref := NewCache(DefaultConfig()), newMapCache(bound.bytes, bound.age)
			got.maxBytes, got.maxAge = bound.bytes, bound.age
			rng := rand.New(rand.NewSource(int64(len(name))))
			seq := uint16(65536 - 3000) // the first wrap comes early
			var now time.Duration
			var recent [512]uint16 // the last sequences stored, for lookups and reuse
			stores := 0
			for op := 0; op < 400_000; op++ {
				switch r := rng.Intn(100); {
				case r < 70: // store the next packet, or rarely jump ahead or reuse a recent number
					switch j := rng.Intn(1000); {
					case j < 998:
						seq++
					case j < 999:
						seq += uint16(rng.Intn(5000))
					default:
						seq = recent[rng.Intn(len(recent))]
					}
					pkt := &rtp.Packet{Header: rtp.Header{SequenceNumber: seq}, VirtualPayloadLen: 100 + rng.Intn(1100)}
					got.Store(pkt, now)
					ref.Store(pkt, now)
					recent[stores%len(recent)] = seq
					stores++
				case r < 85: // NACK a recent packet (repeats run into the retry cap) or a random one
					s := recent[rng.Intn(len(recent))]
					if rng.Intn(4) == 0 {
						s = uint16(rng.Intn(1 << 16))
					}
					if g, w := got.Lookup(s, now), ref.Lookup(s, now); g != w {
						t.Fatalf("op %d: Lookup(%d) at %v = %p, map reference %p", op, s, now, g, w)
					}
				default: // let time pass: usually a packet gap, rarely an outage
					now += time.Duration(rng.Intn(2000)) * time.Microsecond
					if rng.Intn(500) == 0 {
						now += time.Duration(rng.Int63n(int64(3 * bound.age)))
					}
				}
				if got.Len() != len(ref.entries) || got.bytes != ref.bytes || got.Misses != ref.Misses {
					t.Fatalf("op %d: len/bytes/misses = %d/%d/%d, map reference %d/%d/%d",
						op, got.Len(), got.bytes, got.Misses, len(ref.entries), ref.bytes, ref.Misses)
				}
			}
			if ref.Stored < 3<<16 || ref.Evicted == 0 || got.Misses == 0 || got.slots.Cap() >= 1<<16 {
				t.Errorf("stream too tame: %d stored, %d evicted, %d misses, %d slots", ref.Stored, ref.Evicted, got.Misses, got.slots.Cap())
			}
		})
	}
}
