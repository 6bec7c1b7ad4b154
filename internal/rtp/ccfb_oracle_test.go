package rtp

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

// refCCFBGenerator is the map-backed generator CCFBGenerator replaced, kept
// verbatim as the oracle for the ring: arrivals in a map keyed by sequence
// number, trimmed by a scan once it holds four windows.
type refCCFBGenerator struct {
	SenderSSRC, MediaSSRC uint32
	Window                int

	started  bool
	highest  uint16
	arrivals map[uint16]time.Duration
}

func newRefCCFBGenerator(senderSSRC, mediaSSRC uint32, window int) *refCCFBGenerator {
	return &refCCFBGenerator{SenderSSRC: senderSSRC, MediaSSRC: mediaSSRC, Window: window,
		arrivals: make(map[uint16]time.Duration)}
}

func (g *refCCFBGenerator) Record(seq uint16, at time.Duration) {
	if !g.started {
		g.started = true
		g.highest = seq
	} else if seqLess(g.highest, seq) {
		g.highest = seq
	}
	if _, dup := g.arrivals[seq]; !dup {
		g.arrivals[seq] = at
	}
	if len(g.arrivals) > 4*g.Window {
		floor := g.highest - uint16(2*g.Window)
		for s := range g.arrivals {
			if seqLess(s, floor) {
				delete(g.arrivals, s)
			}
		}
	}
}

func (g *refCCFBGenerator) Report(now time.Duration) *CCFB {
	if !g.started {
		return nil
	}
	begin := g.highest - uint16(g.Window-1)
	rep := CCFBReport{SSRC: g.MediaSSRC, BeginSeq: begin}
	for i := 0; i < g.Window; i++ {
		m := CCFBMetric{}
		if at, ok := g.arrivals[begin+uint16(i)]; ok {
			m.Received = true
			if off := now - at; off > 0 {
				m.ArrivalOffset = off
			}
		}
		rep.Metrics = append(rep.Metrics, m)
	}
	return &CCFB{SenderSSRC: g.SenderSSRC, Reports: []CCFBReport{rep}, Timestamp: now}
}

// TestCCFBGeneratorMatchesMapOracle drives the ring-backed generator and
// the map-backed reference with the same arrivals — loss, duplicates,
// reordering, loss bursts longer than the ring, several trips round the
// 16-bit sequence space — and requires byte-identical marshalled reports.
// Every loss burst is followed by more than four windows of dense arrivals,
// which is what keeps the reference's own trim ahead of the sequence wrap
// (see TestCCFBGeneratorWrapReusedSeqNotReceived for where it is not).
func TestCCFBGeneratorMatchesMapOracle(t *testing.T) {
	for _, window := range []int{1, 8, 64, 100, 256} {
		rng := rand.New(rand.NewSource(int64(window)))
		g := NewCCFBGenerator(1, 2, window)
		ref := newRefCCFBGenerator(1, 2, window)
		seq := uint16(65000) // the first wrap comes early
		now := time.Duration(0)
		var late []uint16 // held back, delivered out of order
		reports := 0
		record := func(s uint16) {
			g.Record(s, now)
			ref.Record(s, now)
		}
		for sent := 0; sent < 250_000; {
			// A dense stretch, then one loss burst.
			for dense := 5*window + rng.Intn(200); dense > 0; dense-- {
				now += time.Duration(rng.Intn(800)) * time.Microsecond
				s := seq
				seq++
				sent++
				switch r := rng.Intn(100); {
				case r < 3: // lost
				case r < 6: // delayed past a few successors
					late = append(late, s)
				case r < 8: // duplicated
					record(s)
					record(s)
				default:
					record(s)
				}
				if len(late) > 0 && rng.Intn(4) == 0 {
					record(late[0])
					late = late[1:]
				}
				if rng.Intn(26) == 0 {
					got, err := g.Report(now).Marshal()
					if err != nil {
						t.Fatal(err)
					}
					want, err := ref.Report(now).Marshal()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("window %d, report %d at seq %d: ring and map reports differ", window, reports, seq)
					}
					reports++
				}
			}
			burst := rng.Intn(3*window + 2)
			seq += uint16(burst)
			sent += burst
		}
		if reports < 1000 {
			t.Fatalf("window %d: only %d reports compared", window, reports)
		}
	}
}

// TestCCFBGeneratorConstantMemory stands where the white-box
// TestCCFBGeneratorTrimsHistory did: history stays bounded. 200 000 packets
// with a report every 26 must not allocate at all once the generator
// exists.
func TestCCFBGeneratorConstantMemory(t *testing.T) {
	g := NewCCFBGenerator(1, 2, 16)
	seq, now := uint16(0), time.Duration(0)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 200_000; i++ {
			now += time.Millisecond
			g.Record(seq, now)
			seq += uint16(1 + i%3) // holes, too
			if i%26 == 0 && g.Report(now) == nil {
				t.Fatal("nil report")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Record+Report allocated %.0f times over 200k packets, want 0", allocs)
	}
}

// TestCCFBGeneratorWrapReusedSeqNotReceived: a sequence number that arrived
// one full trip of the 16-bit space ago must not read as received when the
// window comes round to it again. The arrivals in between are sparse, so
// the old map never reached its trim threshold and reported the stale entry.
func TestCCFBGeneratorWrapReusedSeqNotReceived(t *testing.T) {
	g := NewCCFBGenerator(1, 2, 64)
	g.Record(50, time.Millisecond)
	now := time.Millisecond
	for s := 350; s < 1<<16; s += 300 {
		now += time.Millisecond
		g.Record(uint16(s), now)
	}
	// The second trip: highest lands on 99, seq 50 is in the window again.
	now += time.Millisecond
	g.Record(99, now)
	rep := g.Report(now).Reports[0]
	if rep.BeginSeq != 36 || len(rep.Metrics) != 64 {
		t.Fatalf("begin=%d n=%d, want 36 and 64", rep.BeginSeq, len(rep.Metrics))
	}
	for i, m := range rep.Metrics {
		if seq := 36 + i; m.Received != (seq == 99) {
			t.Errorf("seq %d: received=%v", seq, m.Received)
		}
	}
}

// TestCCFBFeedbackPathAllocations pins the steady-state allocation count of
// the RFC 8888 path: Report fills the generator's own packet, AppendTo
// writes into a buffer that has held a report before (a datagram slot's),
// and Unmarshal refills the struct it is called on, so none allocates.
func TestCCFBFeedbackPathAllocations(t *testing.T) {
	g := NewCCFBGenerator(1, 2, 256)
	for i := 0; i < 300; i++ {
		g.Record(uint16(i), time.Duration(i)*400*time.Microsecond)
	}
	var fb *CCFB
	if n := testing.AllocsPerRun(100, func() { fb = g.Report(time.Second) }); n != 0 {
		t.Errorf("Report allocates %.0f per call, want 0", n)
	}
	buf, err := fb.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = fb.AppendTo(buf[:0]) }); n != 0 {
		t.Errorf("AppendTo into a used buffer allocates %.0f per call, want 0", n)
	}
	var parsed CCFB
	if err := parsed.Unmarshal(buf); err != nil { // sizes parsed's backing
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if err := parsed.Unmarshal(buf); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("Unmarshal into a reused CCFB allocates %.0f per call, want 0", n)
	}
	if len(parsed.Reports) != 1 || len(parsed.Reports[0].Metrics) != 256 {
		t.Fatalf("reused CCFB parsed to %d reports", len(parsed.Reports))
	}
}

// TestCCFBUnmarshalReuseDoesNotLeakOldMetrics: a reused struct must hold
// exactly the packet last parsed, including when that packet has fewer
// reports or shorter reports than the one before.
func TestCCFBUnmarshalReuseDoesNotLeakOldMetrics(t *testing.T) {
	big := &CCFB{SenderSSRC: 1, Timestamp: time.Second, Reports: []CCFBReport{
		{SSRC: 2, BeginSeq: 10, Metrics: []CCFBMetric{{Received: true}, {Received: true}, {Received: true}, {Received: true}}},
		{SSRC: 3, BeginSeq: 20, Metrics: []CCFBMetric{{Received: true}, {Received: true}}},
	}}
	small := &CCFB{SenderSSRC: 1, Timestamp: 2 * time.Second, Reports: []CCFBReport{
		{SSRC: 4, BeginSeq: 30, Metrics: []CCFBMetric{{}, {Received: true, ECN: 1}}},
	}}
	bigBuf, err := big.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	smallBuf, err := small.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var reused, fresh CCFB
	for _, buf := range [][]byte{bigBuf, smallBuf, bigBuf} {
		if err := reused.Unmarshal(buf); err != nil {
			t.Fatal(err)
		}
		fresh = CCFB{}
		if err := fresh.Unmarshal(buf); err != nil {
			t.Fatal(err)
		}
		a, err := reused.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) || !bytes.Equal(a, buf) {
			t.Fatalf("reused struct re-marshals differently from a fresh one")
		}
	}
}
