package video

import (
	"math/rand"
	"testing"
	"time"

	"rpivideo/internal/cc"
	"rpivideo/internal/sim"
)

// sentOracle is the sent-record store the one traffic-sized table replaced:
// two fixed sentWindow-slot tables, one per sequence space, each written on
// every send.
type sentOracle struct {
	byTSeq, bySeq [sentWindow]SentRecord
}

func (o *sentOracle) store(rec SentRecord) {
	o.byTSeq[rec.TransportSeq&sentMask] = rec
	o.bySeq[rec.Seq&sentMask] = rec
}

func (o *sentOracle) lookupTransport(tseq uint16) (SentRecord, bool) {
	rec := o.byTSeq[tseq&sentMask]
	if rec.Size == 0 || rec.TransportSeq != tseq {
		return SentRecord{}, false
	}
	return rec, true
}

func (o *sentOracle) lookupSeq(seq uint16) (SentRecord, bool) {
	rec := o.bySeq[seq&sentMask]
	if rec.Size == 0 || rec.Seq != seq {
		return SentRecord{}, false
	}
	return rec, true
}

func (o *sentOracle) ackSeq(seq uint16) (rec SentRecord, ok, again bool) {
	r := &o.bySeq[seq&sentMask]
	if r.Size == 0 || r.Seq != seq {
		return SentRecord{}, false, false
	}
	rec, again = *r, r.acked
	r.acked = true
	return rec, true, again
}

// sentView is what a caller outside the package sees of a record: the
// acknowledgement mark is AckSeq's, and the oracle's transport table never
// carried it.
func sentView(rec SentRecord) SentRecord {
	rec.acked = false
	return rec
}

// sentDriver sends records with chosen sequence numbers into a Sender and
// the oracle alike, and compares every lookup.
type sentDriver struct {
	t   *testing.T
	rng *rand.Rand
	snd *Sender
	o   *sentOracle
	now time.Duration
}

func newSentDriver(t *testing.T, seed int64) *sentDriver {
	s := sim.New(seed)
	return &sentDriver{
		t:   t,
		rng: rand.New(rand.NewSource(seed)),
		snd: NewSender(s, DefaultSenderConfig(), &cc.Static{Rate: 8e6}, s.Stream("enc")),
		o:   new(sentOracle),
	}
}

func (d *sentDriver) send(seq, tseq uint16) {
	d.now += time.Duration(1+d.rng.Intn(1000)) * time.Microsecond
	rec := SentRecord{Seq: seq, TransportSeq: tseq, Size: 1 + d.rng.Intn(1200), SendTime: d.now}
	d.snd.remember(rec)
	d.o.store(rec)
}

// check compares the three lookups for seq, and LookupTransport for tseq.
// With ack set, Acked and then AckSeq (which marks the record) are called,
// against the oracle's ackSeq and whether it found the record marked.
func (d *sentDriver) check(seq, tseq uint16, ack bool) {
	d.t.Helper()
	got, ok := d.snd.LookupTransport(tseq)
	want, wok := d.o.lookupTransport(tseq)
	if ok != wok || sentView(got) != want {
		d.t.Fatalf("LookupTransport(%d) = %+v, %v; oracle %+v, %v", tseq, got, ok, want, wok)
	}
	got, ok = d.snd.LookupSeq(seq)
	want, wok = d.o.lookupSeq(seq)
	if ok != wok || got != want {
		d.t.Fatalf("LookupSeq(%d) = %+v, %v; oracle %+v, %v", seq, got, ok, want, wok)
	}
	if ack {
		again := d.snd.Acked(seq)
		got, ok := d.snd.AckSeq(seq)
		want, wok, wagain := d.o.ackSeq(seq)
		if ok != wok || again != wagain || got != want {
			d.t.Fatalf("Acked(%d) = %v, AckSeq = %+v, %v; oracle %+v, %v, again %v", seq, again, got, ok, want, wok, wagain)
		}
	}
}

// probe checks the just-sent number, a recent one, one from up to two
// windows back and a random one.
func (d *sentDriver) probe(seq, delta uint16) {
	for _, k := range []uint16{seq, seq - uint16(d.rng.Intn(300)), seq - uint16(d.rng.Intn(2*sentWindow)), uint16(d.rng.Intn(1 << 16))} {
		d.check(k, k+delta, d.rng.Intn(3) == 0)
	}
}

// TestSentTableMatchesFixedWindows holds the one traffic-sized table to the
// two fixed windows it replaced: every LookupTransport, LookupSeq and AckSeq
// answer equal, over consecutive sends through the 16-bit wrap (from 65 530,
// 40 000 of them, which takes the table to its full size) and over sparse,
// jumping and repeated sequence numbers that drive the growth path early.
func TestSentTableMatchesFixedWindows(t *testing.T) {
	cases := []struct {
		name  string
		start uint16
		sends int
		step  func(rng *rand.Rand) uint16
		slots int // the table's size at the end
	}{
		{"consecutive from 65530", 65530, 40_000, func(*rand.Rand) uint16 { return 1 }, sentWindow},
		{"a short run stays small", 0, 200, func(*rand.Rand) uint16 { return 1 }, sentMinSlots},
		{"sparse", 65000, 20_000, func(rng *rand.Rand) uint16 { return uint16(1 + rng.Intn(7)) }, sentWindow},
		{"jumps and repeats", 100, 20_000, func(rng *rand.Rand) uint16 {
			switch rng.Intn(20) {
			case 0:
				return uint16(rng.Intn(1 << 16)) // anywhere, 0 repeats the last number
			case 1:
				return uint16(sentWindow - 2 + rng.Intn(5)) // one window on: a live or a dead slot
			default:
				return 1
			}
		}, sentWindow},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for j, delta := range []uint16{0, 0x9e37} {
				d := newSentDriver(t, int64(2*i+j+1))
				seq := tc.start
				for n := 0; n < tc.sends; n++ {
					d.send(seq, seq+delta)
					d.probe(seq, delta)
					seq += tc.step(d.rng)
				}
				if got := len(d.snd.sent.recs); got != tc.slots {
					t.Errorf("delta %d: %d slots after %d sends, want %d", delta, got, tc.sends, tc.slots)
				}
			}
		})
	}
}

// TestSentTableGrowsOnlyOnLiveCollision: numbers a full window apart share
// a slot in every size, so they overwrite without growing; numbers that
// differ modulo the window force growth exactly when they meet.
func TestSentTableGrowsOnlyOnLiveCollision(t *testing.T) {
	d := newSentDriver(t, 3)
	var last uint16
	for k := 0; k < 8; k++ {
		last = uint16(k * sentWindow)
		d.send(last, last)
		d.check(last, last, false)
	}
	if got := len(d.snd.sent.recs); got != sentMinSlots {
		t.Fatalf("%d slots after sends one window apart, want %d", got, sentMinSlots)
	}
	for _, seq := range []uint16{sentMinSlots, 4 * sentMinSlots, 16 * sentMinSlots} {
		d.send(seq, seq)
		if got, want := len(d.snd.sent.recs), int(seq)*4; got != want {
			t.Fatalf("send %d: %d slots, want %d", seq, got, want)
		}
		d.check(last, last, false)
		d.check(seq, seq, false)
	}
}

// TestSentTableTransportMismatchMisses: LookupTransport reads the slot the
// noted delta points at and still checks the stored TransportSeq, so a
// number whose record is elsewhere — an older delta — or absent misses
// instead of answering with a neighbour's record.
func TestSentTableTransportMismatchMisses(t *testing.T) {
	d := newSentDriver(t, 4)
	d.send(10, 10)
	d.send(11, 11)
	if rec, ok := d.snd.LookupTransport(10 + sentWindow); ok {
		t.Fatalf("transport seq %d answered with %+v", 10+sentWindow, rec)
	}
	d.send(12, 20) // the delta changes: earlier records are out of its reach
	if rec, ok := d.snd.LookupTransport(20); !ok || rec.Seq != 12 {
		t.Fatalf("LookupTransport(20) = %+v, %v; want the record of seq 12", rec, ok)
	}
	if rec, ok := d.snd.LookupTransport(11); ok {
		t.Fatalf("LookupTransport(11) under a changed delta = %+v, want a miss", rec)
	}
	if rec, ok := d.snd.LookupSeq(11); !ok || rec.TransportSeq != 11 {
		t.Fatalf("LookupSeq(11) = %+v, %v; the record must still be there", rec, ok)
	}
	// Under deltas that change at every send a hit is still the stored
	// record of a packet sent with that transport sequence number.
	for n := 0; n < 50_000; n++ {
		seq, delta := uint16(d.rng.Intn(1<<16)), uint16(d.rng.Intn(4))
		d.send(seq, seq+delta)
		tseq := uint16(d.rng.Intn(1 << 16))
		if got, ok := d.snd.LookupTransport(tseq); ok {
			if bySeq, _ := d.snd.LookupSeq(got.Seq); got.TransportSeq != tseq || got != bySeq {
				t.Fatalf("LookupTransport(%d) = %+v; the table holds %+v for its seq", tseq, got, bySeq)
			}
		}
	}
}

// TestSentTableReusedMatchesFixedWindows: one sender Reset between runs —
// the first grows the table to its full size, the next ones start there,
// emptied — answers every lookup as a fresh pair of fixed windows does, a
// short run as well as a long one: any table size from sentMinSlots up
// keeps exactly the records the full window keeps.
func TestSentTableReusedMatchesFixedWindows(t *testing.T) {
	var snd *Sender
	for i, run := range []struct {
		start, delta uint16
		sends, every int
	}{
		{65530, 0, 40_000, 1},
		{100, 0x9e37, 200, 1},
		{65000, 7, 20_000, 3},
		{0, 0, 5_000, 1},
	} {
		d := newSentDriver(t, int64(20+i))
		if snd != nil {
			s := sim.New(int64(20 + i))
			snd.Reset(s, DefaultSenderConfig(), &cc.Static{Rate: 8e6}, s.Stream("enc"))
			d.snd = snd
		}
		snd = d.snd
		seq := run.start
		for n := 0; n < run.sends; n++ {
			d.send(seq, seq+run.delta)
			d.probe(seq, run.delta)
			seq += uint16(1 + d.rng.Intn(run.every))
		}
		if got := len(d.snd.sent.recs); got != sentWindow {
			t.Errorf("run %d: %d slots, want the %d the first run grew", i, got, sentWindow)
		}
	}
}
