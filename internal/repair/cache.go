package repair

import (
	"time"

	"rpivideo/internal/rtp"
)

// cacheEntry is one stored packet, held by value in its table slot.
type cacheEntry struct {
	pkt      *rtp.Packet
	seq      uint16
	live     bool
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
// Entries live in a direct-mapped, key-validated table: slot seq&mask holds
// the live entry whose seq matches. The table doubles when two live
// sequence numbers would share a slot (at 1<<16 slots none can), so it
// answers exactly as a map keyed by seq would, without hashing and without
// a heap object per packet. The FIFO keeps store order for eviction; a ref
// whose (seq, storedAt) no longer matches its slot is a husk.
type Cache struct {
	// maxBytes and maxAge bound the store (the constants cacheBytes and
	// cacheAge; a test may lower them).
	maxBytes int
	maxAge   time.Duration
	slots    []cacheEntry // len is a power of two
	live     int
	fifo     []fifoRef
	head     int
	bytes    int

	// Stored and Evicted count packets in and out; Misses counts lookups
	// that found nothing fresh enough to resend.
	Stored  int
	Evicted int
	Misses  int
}

// cacheInitSlots covers the default 400 ms age window at ≈600 pkt/s; a
// faster stream doubles the table a few times in its first second.
const cacheInitSlots = 1 << 8

// NewCache returns an empty cache. Its bounds are the package's constants;
// the Config is not read.
func NewCache(Config) *Cache {
	return &Cache{maxBytes: cacheBytes, maxAge: cacheAge, slots: make([]cacheEntry, cacheInitSlots)}
}

// Bytes returns the bytes currently held.
func (c *Cache) Bytes() int { return c.bytes }

// Len returns the number of packets currently held.
func (c *Cache) Len() int { return c.live }

// slot returns the one slot seq can occupy.
func (c *Cache) slot(seq uint16) *cacheEntry {
	return &c.slots[int(seq)&(len(c.slots)-1)]
}

// Store remembers a just-sent media packet for possible retransmission and
// evicts whatever the byte and age bounds no longer cover. The cache takes a
// reference of its own and releases it when the entry goes (see rtp's
// pool.go); Lookup's packet is lent until the next Store.
func (c *Cache) Store(pkt *rtp.Packet, now time.Duration) {
	seq := pkt.Header.SequenceNumber
	e := c.slot(seq)
	for ; e.live && e.seq != seq; e = c.slot(seq) {
		old := c.slots
		c.slots = make([]cacheEntry, 2*len(old))
		for i := range old {
			if old[i].live {
				*c.slot(old[i].seq) = old[i]
			}
		}
	}
	if e.live {
		// Sequence number reuse (wrap): the old entry is long stale.
		e.pkt.Release()
		c.bytes -= e.size
		c.Evicted++
		c.live--
	}
	pkt.Retain()
	size := pkt.MarshalSize()
	*e = cacheEntry{pkt: pkt, seq: seq, live: true, size: size, storedAt: now}
	c.live++
	c.fifo = append(c.fifo, fifoRef{seq: seq, storedAt: now})
	c.bytes += size
	c.Stored++
	c.evict(now)
}

// Lookup returns the cached packet for a NACKed sequence number, or nil if
// it was never stored, already evicted, aged out, or resent to the retry
// cap. A hit counts one resend against the entry.
func (c *Cache) Lookup(seq uint16, now time.Duration) *rtp.Packet {
	e := c.slot(seq)
	if !e.live || e.seq != seq || now-e.storedAt > c.maxAge || e.resends >= maxRetries {
		c.Misses++
		return nil
	}
	e.resends++
	return e.pkt
}

func (c *Cache) evict(now time.Duration) {
	for c.head < len(c.fifo) {
		ref := c.fifo[c.head]
		e := c.slot(ref.seq)
		if !e.live || e.seq != ref.seq || e.storedAt != ref.storedAt {
			c.head++ // entry already replaced or gone; ref is a husk
			continue
		}
		if c.bytes <= c.maxBytes && now-e.storedAt <= c.maxAge {
			break
		}
		c.bytes -= e.size
		e.pkt.Release()
		*e = cacheEntry{}
		c.live--
		c.Evicted++
		c.head++
	}
	if c.head > len(c.fifo)/2 && c.head > 64 {
		// Slide the live refs down in place: the backing array is reused.
		c.fifo = c.fifo[:copy(c.fifo, c.fifo[c.head:])]
		c.head = 0
	}
}
