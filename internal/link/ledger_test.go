package link

import (
	"testing"
	"time"

	"rpivideo/internal/fault"
	"rpivideo/internal/obs"
	"rpivideo/internal/sim"
)

// maxLedgerOffers bounds one FuzzLinkLedger input: every check copies the
// trace so far, so a run costs the square of its offers.
const maxLedgerOffers = 256

// byteReader hands out an input's bytes in order, then zeros.
type byteReader []byte

func (b *byteReader) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// classOf inverts Class.flags.
func classOf(flags uint8) Class {
	for c := Media; c < numClasses; c++ {
		if c.flags() == flags {
			return c
		}
	}
	panic("unknown class flags")
}

// ledgerRun decodes data into a link and a sequence of offers, runs it, and
// checks the ledger after every offer and once the link has drained: the
// conservation identity per class, and the trace's per-class send, recv and
// drop (by reason) counts equal to the ledger's.
//
// data[0] is the mode: bit 0 AQM, bit 1 stale flush (else freeze), bits 2–4
// the PER in percent, bit 5 jitter. data[1]&3 fault windows follow, three
// bytes each: start in 20 ms units, duration in 10 ms units (plus one), and
// bit 0 of the third for a loss fade instead of an outage. The rest is
// offers, three bytes each: the class (mod 3), the size in 8-byte units over
// 40, and the gap before the offer in 200 µs units.
func ledgerRun(t *testing.T, data []byte) *Link {
	t.Helper()
	in := byteReader(data)
	mode := in.next()
	p := cleanProfile()
	p.MeanCapacity, p.MinCapacity = 2e6, 2e6
	p.BufferBytes = 24_000
	p.AQM = mode&1 != 0
	p.PER = float64(mode>>2&7) / 100
	p.MeanBurstLen = 2
	if mode&32 != 0 {
		p.JitterSigma = 5 * time.Millisecond
	}
	var ws []fault.Window
	for n := in.next() & 3; n > 0; n-- {
		start, dur, kind := in.next(), in.next(), in.next()
		ws = append(ws, fault.Window{
			Start:    time.Duration(start) * 20 * time.Millisecond,
			Duration: (time.Duration(dur) + 1) * 10 * time.Millisecond,
			Dir:      fault.Both,
			Loss:     kind&1 != 0,
		})
	}

	s := sim.New(1)
	l := New(s, p, nil, nil, s.Stream("link"))
	l.Deliver = func(any, int, time.Duration, time.Duration) {}
	l.SetFaults(fault.NewPathLine(ws, fault.Uplink, fault.PathAll), mode&2 != 0, 100*time.Millisecond)
	tr := obs.New(0)
	l.SetTracer(tr, obs.DirUp)

	var fromTrace [numClasses]Counts
	traced := 0
	// check runs after offer step (-1 once drained).
	check := func(step int) {
		t.Helper()
		if err := ledgerBalances(l); err != nil {
			t.Fatalf("offer %d: %v", step, err)
		}
		evs := tr.Events()
		for _, e := range evs[traced:] {
			c := classOf(e.Flags)
			switch e.Kind {
			case obs.KindSend:
				fromTrace[c].Sent++
			case obs.KindRecv:
				fromTrace[c].Delivered++
			case obs.KindDrop:
				fromTrace[c].Dropped[e.Aux]++
			}
		}
		traced = len(evs)
		for c := Media; c < numClasses; c++ {
			if fromTrace[c] != l.Count(c) {
				t.Fatalf("offer %d: class %d trace counts %+v, ledger %+v", step, c, fromTrace[c], l.Count(c))
			}
		}
	}

	send := [numClasses]func(any, int){Media: l.Send, Control: l.SendControl, RTX: l.SendRTX}
	for i := 0; i < maxLedgerOffers && len(in) > 0; i++ {
		class, size := Class(in.next()%3), 40+8*int(in.next())
		s.RunUntil(s.Now() + time.Duration(in.next())*200*time.Microsecond)
		send[class](nil, size)
		check(i)
	}
	s.Run()
	check(-1)
	if l.queue.Len() != 0 || l.inflight.Len() != 0 {
		t.Fatalf("drained link holds %d queued and %d in-flight packets", l.queue.Len(), l.inflight.Len())
	}
	return l
}

// ledgerSeed builds a ledgerRun input: the mode, the fault windows, then n
// offers cycling media, RTX, media, control (1 200, 1 200, 1 200 and 80
// bytes), ten back to back and ten 5 ms apart — about 1.5× the 2 Mbps link.
func ledgerSeed(mode byte, windows [][3]byte, n int) []byte {
	data := []byte{mode, byte(len(windows))}
	for _, w := range windows {
		data = append(data, w[:]...)
	}
	for i := 0; i < n; i++ {
		class, size, gap := [4]byte{0, 2, 0, 1}[i%4], byte(145), byte(0)
		if class == 1 {
			size = 5
		}
		if i%20 >= 10 {
			gap = 25
		}
		data = append(data, class, size, gap)
	}
	return data
}

var ledgerSeeds = [][]byte{
	// A clean link offered a few packets: nothing drops.
	ledgerSeed(0, nil, 40),
	// AQM, 3 % PER, jitter, stale flush; a 60 ms loss fade at 400 ms and a
	// 150 ms outage at 480 ms.
	ledgerSeed(1|2|3<<2|32, [][3]byte{{20, 5, 1}, {24, 14, 0}}, maxLedgerOffers),
	// The same outage frozen instead of flushed, no AQM: the backlog
	// overflows and is served late.
	ledgerSeed(3<<2, [][3]byte{{10, 40, 0}}, maxLedgerOffers),
}

// FuzzLinkLedger: for any sequence of offers, AQM setting and fault
// schedule, every class's ledger balances against the queue and in-flight
// rings after every offer, and equals what the trace says happened.
func FuzzLinkLedger(f *testing.F) {
	for _, seed := range ledgerSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { ledgerRun(t, data) })
}

// TestLedgerSeedsReachEveryDrop: FuzzLinkLedger's seeds deliver every class
// and drop it for every reason the class can meet (control never overflows).
func TestLedgerSeedsReachEveryDrop(t *testing.T) {
	var total [numClasses]Counts
	for _, seed := range ledgerSeeds {
		l := ledgerRun(t, seed)
		for c := Media; c < numClasses; c++ {
			n := l.Count(c)
			total[c].Sent += n.Sent
			total[c].Delivered += n.Delivered
			for r := range n.Dropped {
				total[c].Dropped[r] += n.Dropped[r]
			}
		}
	}
	for c := Media; c < numClasses; c++ {
		n := total[c]
		if n.Delivered == 0 {
			t.Errorf("class %d: nothing delivered", c)
		}
		for r := DropLoss; r < numDropReasons; r++ {
			if c == Control && r == DropOverflow {
				if n.Dropped[r] != 0 {
					t.Errorf("control overflowed %d times", n.Dropped[r])
				}
				continue
			}
			if n.Dropped[r] == 0 {
				t.Errorf("class %d: no %v drop across the seeds", c, r)
			}
		}
	}
}
