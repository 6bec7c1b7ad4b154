package repair

import (
	"time"

	"rpivideo/internal/ring"
	"rpivideo/internal/rtp"
)

// cacheEntry is one stored packet, held by value in its table slot.
type cacheEntry struct {
	pkt      *rtp.Packet
	size     int
	storedAt time.Duration
	resends  int
}

type fifoRef struct {
	seq      uint16
	storedAt time.Duration
}

// Cache is the sender-side retransmission store, bounded by total bytes
// and by entry age. Sequence numbers wrap every 65536 packets; the age
// bound keeps the live window far below that, and eviction double-checks
// the store timestamp so a reused number can never evict its successor.
//
// Entries live by value in a ring.SeqTable, which answers exactly as a map
// keyed by seq would. The FIFO keeps store order for eviction; a ref whose
// (seq, storedAt) no longer matches a live entry is a husk.
type Cache struct {
	// maxBytes and maxAge bound the store (the constants cacheBytes and
	// cacheAge; a test may lower them).
	maxBytes int
	maxAge   time.Duration
	slots    ring.SeqTable[cacheEntry]
	fifo     ring.Queue[fifoRef]
	bytes    int

	// Misses counts lookups that found nothing fresh enough to resend.
	Misses int
}

// cacheInitSlots covers the default 400 ms age window at ≈600 pkt/s; a
// faster stream doubles the table a few times in its first second.
const cacheInitSlots = 1 << 8

// NewCache returns an empty cache. Its bounds are the package's constants;
// the Config is not read.
func NewCache(Config) *Cache {
	return &Cache{maxBytes: cacheBytes, maxAge: cacheAge, slots: ring.MakeSeqTable[cacheEntry](cacheInitSlots)}
}

// Len returns the number of packets currently held.
func (c *Cache) Len() int { return c.slots.Len() }

// Store remembers a just-sent media packet for possible retransmission and
// evicts whatever the byte and age bounds no longer cover. The cache takes a
// reference of its own and releases it when the entry goes (see rtp's
// pool.go); Lookup's packet is lent until the next Store.
func (c *Cache) Store(pkt *rtp.Packet, now time.Duration) {
	seq := pkt.Header.SequenceNumber
	pkt.Retain()
	size := pkt.MarshalSize()
	if old, ok := c.slots.Put(seq, cacheEntry{pkt: pkt, size: size, storedAt: now}); ok {
		// Sequence number reuse (wrap): the old entry is long stale.
		old.pkt.Release()
		c.bytes -= old.size
	}
	c.fifo.Push(fifoRef{seq: seq, storedAt: now})
	c.bytes += size
	c.evict(now)
}

// Lookup returns the cached packet for a NACKed sequence number, or nil if
// it was never stored, already evicted, aged out, or resent to the retry
// cap. A hit counts one resend against the entry.
func (c *Cache) Lookup(seq uint16, now time.Duration) *rtp.Packet {
	e := c.slots.Get(seq)
	if e == nil || now-e.storedAt > c.maxAge || e.resends >= maxRetries {
		c.Misses++
		return nil
	}
	e.resends++
	return e.pkt
}

func (c *Cache) evict(now time.Duration) {
	for c.fifo.Len() > 0 {
		// A ref whose entry was replaced or is gone is a husk: pop it.
		ref := c.fifo.At(0)
		if e := c.slots.Get(ref.seq); e != nil && e.storedAt == ref.storedAt {
			if c.bytes <= c.maxBytes && now-e.storedAt <= c.maxAge {
				break
			}
			c.bytes -= e.size
			e.pkt.Release()
			c.slots.Delete(ref.seq)
		}
		c.fifo.Pop()
	}
}
