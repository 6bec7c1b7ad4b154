package rtp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
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
// 16-bit sequence space — and requires AppendReport's bytes to decode,
// word by word, to the reference's report, and to equal its marshalled
// bytes, as Report's must.
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
		var wire []byte
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
					// What a run sends: AppendReport's bytes, into a slot
					// that held the report before, decoded word by word.
					var ok bool
					if wire, ok = g.AppendReport(wire[:0], now); !ok {
						t.Fatalf("window %d: no report after %d packets", window, sent)
					}
					wantFB := ref.Report(now)
					if err := checkReportWords(wire, wantFB); err != nil {
						t.Fatalf("window %d, report %d at seq %d: %v", window, reports, seq, err)
					}
					got, err := g.Report(now).Marshal()
					if err != nil {
						t.Fatal(err)
					}
					want, err := wantFB.Marshal()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) || !bytes.Equal(wire, want) {
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
// the RFC 8888 path. A run's: AppendReport writes into a buffer that has
// held a report before (a datagram slot's) and ParseCCFB reads it in
// place. The decoded types': Report refills the generator's own packet,
// AppendTo writes into a used buffer and Unmarshal refills the struct it
// is called on. None allocates.
func TestCCFBFeedbackPathAllocations(t *testing.T) {
	g := NewCCFBGenerator(1, 2, 256)
	for i := 0; i < 300; i++ {
		g.Record(uint16(i), time.Duration(i)*400*time.Microsecond)
	}
	wire, _ := g.AppendReport(nil, time.Second)
	received := 0
	if n := testing.AllocsPerRun(100, func() {
		wire, _ = g.AppendReport(wire[:0], time.Second)
		v, err := ParseCCFB(wire)
		if err != nil {
			t.Fatal(err)
		}
		for b, ok := v.Next(); ok; b, ok = v.Next() {
			for i := range b.Len() {
				if r, _, _ := DecodeCCFBWord(b.Word(i)); r {
					received++
				}
			}
		}
	}); n != 0 {
		t.Errorf("AppendReport into a used buffer and ParseCCFB allocate %.0f per report, want 0", n)
	}
	if received != 101*256 {
		t.Fatalf("%d metric words read received over 101 reports, want all 256 of each", received)
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

// quantizedATO is what the wire keeps of an arrival offset: whole 1/1024 s
// units, floored at 0 and saturated at the 13-bit field's maximum.
func quantizedATO(d time.Duration) time.Duration {
	unit := time.Second / 1024
	return min(max(d, 0)/unit, 0x1FFF) * unit
}

// checkReportWords reads buf, a generator's report, in place (ParseCCFB)
// and holds it to want, a reference's report with exact arrival offsets:
// the SSRCs, the timestamp, one block over want's sequence numbers, and
// every metric word — received as want's is, ECN zero, the offset
// quantized.
func checkReportWords(buf []byte, want *CCFB) error {
	v, err := ParseCCFB(buf)
	if err != nil {
		return err
	}
	if v.SenderSSRC != want.SenderSSRC || v.Timestamp != fromNTP32(ntp32(want.Timestamp)) {
		return fmt.Errorf("sender %#x at %v, want %#x at %v", v.SenderSSRC, v.Timestamp, want.SenderSSRC, want.Timestamp)
	}
	b, ok := v.Next()
	rep := want.Reports[0]
	if !ok || b.SSRC != rep.SSRC || b.BeginSeq != rep.BeginSeq || b.Len() != len(rep.Metrics) {
		return fmt.Errorf("block %+v, want ssrc %#x from %d, %d metrics", b, rep.SSRC, rep.BeginSeq, len(rep.Metrics))
	}
	if _, more := v.Next(); more {
		return fmt.Errorf("a second report block")
	}
	for i, m := range rep.Metrics {
		received, ecn, offset := DecodeCCFBWord(b.Word(i))
		if received != m.Received || ecn != 0 || (received && offset != quantizedATO(m.ArrivalOffset)) {
			return fmt.Errorf("seq %d: received %v ecn %d offset %v, want received %v offset %v",
				rep.BeginSeq+uint16(i), received, ecn, offset, m.Received, quantizedATO(m.ArrivalOffset))
		}
	}
	return nil
}

// extCCFBGenerator is the generator's contract without its ring, for
// programs the map reference cannot follow (sparse arrivals round the
// 16-bit space outrun its trim): every sequence number is extended —
// counted from the first one recorded, a step ahead of the highest when it
// is less than half the space ahead — so no two arrivals ever share a key.
// An arrival is kept unless it is at least a window behind the highest,
// where no report can cover it any more; a report covers the Window
// numbers ending at the highest.
type extCCFBGenerator struct {
	senderSSRC, mediaSSRC uint32
	window                int
	started               bool
	highest               int64
	arrivals              map[int64]time.Duration
}

func (o *extCCFBGenerator) Record(seq uint16, at time.Duration) {
	if !o.started {
		o.started, o.highest = true, 1<<32+int64(seq)
	}
	ext := o.highest + int64(int16(seq-uint16(o.highest)))
	if ext > o.highest {
		// Keep the map window-sized: what falls out of the window leaves.
		w := int64(o.window)
		for k := o.highest - w + 1; k <= min(o.highest, ext-w); k++ {
			delete(o.arrivals, k)
		}
		o.highest = ext
	}
	if o.highest-ext >= int64(o.window) {
		return
	}
	if _, dup := o.arrivals[ext]; !dup {
		o.arrivals[ext] = at
	}
}

func (o *extCCFBGenerator) Report(now time.Duration) *CCFB {
	if !o.started {
		return nil
	}
	begin := o.highest - int64(o.window) + 1
	rep := CCFBReport{SSRC: o.mediaSSRC, BeginSeq: uint16(begin)}
	for k := begin; k <= o.highest; k++ {
		m := CCFBMetric{}
		if at, ok := o.arrivals[k]; ok {
			m = CCFBMetric{Received: true, ArrivalOffset: max(now-at, 0)}
		}
		rep.Metrics = append(rep.Metrics, m)
	}
	return &CCFB{SenderSSRC: o.senderSSRC, Reports: []CCFBReport{rep}, Timestamp: now}
}

// FuzzCCFBGenerator runs byte-decoded programs of Record and AppendReport
// on a generator and on extCCFBGenerator. The first byte picks the window,
// the second how long a prefix AppendReport appends after (into a buffer
// whose spare capacity holds stale bytes, as a recycled datagram slot's
// does). Each further 3-byte step advances the clock by op[0]>>2 × 100 µs,
// then by op[0]&3 records a packet near the highest (a signed byte away:
// duplicates, reordering, small gaps), records one anywhere in the 16-bit
// space (long gaps, laps, numbers far behind), records a dense run after
// the highest, or reports. Every report must append to the prefix without
// touching it, decode word by word to the contract's report, and be what
// Report decodes.
func FuzzCCFBGenerator(f *testing.F) {
	f.Add([]byte{3, 0, 2 << 2, 60, 5, 3 << 2, 0, 0, 3 << 2, 0, 0})
	f.Add([]byte{2, 5, 1, 0xFF, 0xF0, 2, 40, 3, 0, 0xFF, 0x80, 7, 0, 0, 1, 0x80, 0x00, 3, 0, 0})
	f.Add([]byte{6, 3, 2, 63, 1, 0, 0xFE, 0, 0, 0x05, 0, 1 << 2, 0, 0, 3, 0, 0, 2, 10, 0, 3, 0, 0})
	f.Add([]byte{4, 0, 3, 0, 0, 0, 0, 0, 1, 0x40, 0, 1, 0x80, 0, 1, 0xC0, 0, 1, 0, 1, 3 | 63<<2, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 {
			return
		}
		windows := []int{1, 2, 7, 8, 64, 100, 256}
		window := windows[int(prog[0])%len(windows)]
		prefix := bytes.Repeat([]byte{0xA5}, int(prog[1]%8))
		prog = prog[2:min(len(prog), 2+3*512)]
		g := NewCCFBGenerator(7, 9, window)
		o := &extCCFBGenerator{senderSSRC: 7, mediaSSRC: 9, window: window, arrivals: map[int64]time.Duration{}}
		record := func(seq uint16, at time.Duration) {
			g.Record(seq, at)
			o.Record(seq, at)
		}
		var highest uint16 // the generator's highest, once started
		now := time.Duration(0)
		dst := make([]byte, 0, len(prefix)+ccfbFixed+ccfbBlockSize(window)+16)
		for step := 0; len(prog) >= 3; step++ {
			op := prog[:3]
			prog = prog[3:]
			now += time.Duration(op[0]>>2) * 100 * time.Microsecond
			switch op[0] & 3 {
			case 0:
				record(highest+uint16(int8(op[1])), now)
			case 1:
				record(highest+binary.BigEndian.Uint16(op[1:]), now-time.Duration(op[1])*time.Millisecond)
			case 2:
				for k := 1; k <= int(op[1]%64)+1; k++ {
					record(highest+uint16(k), now+time.Duration(k*int(op[2]))*time.Microsecond)
				}
			case 3:
				dst = append(dst[:0], prefix...)
				stale := dst[len(dst):cap(dst)]
				for i := range stale {
					stale[i] = 0xFF
				}
				got, ok := g.AppendReport(dst, now)
				want := o.Report(now)
				if ok != (want != nil) || !bytes.Equal(got[:len(prefix)], prefix) {
					t.Fatalf("step %d: report %v (want %v), prefix % x", step, ok, want != nil, got[:len(prefix)])
				}
				if !ok {
					if len(got) != len(prefix) || g.Report(now) != nil {
						t.Fatalf("step %d: a report before any packet", step)
					}
					continue
				}
				wire := got[len(prefix):]
				if err := checkReportWords(wire, want); err != nil {
					t.Fatalf("step %d, window %d at %v: %v", step, window, now, err)
				}
				var decoded CCFB
				if err := decoded.Unmarshal(wire); err != nil {
					t.Fatal(err)
				}
				decoded.Timestamp = now
				if fb := g.Report(now); fb.SenderSSRC != decoded.SenderSSRC || fb.Timestamp != now ||
					len(fb.Reports) != 1 || fb.Reports[0].BeginSeq != decoded.Reports[0].BeginSeq ||
					!slices.Equal(fb.Reports[0].Metrics, decoded.Reports[0].Metrics) {
					t.Fatalf("step %d: Report is not AppendReport's bytes decoded", step)
				}
			}
			if o.started {
				highest = uint16(o.highest)
			}
		}
	})
}

// refUnmarshalCCFB is the RFC 8888 parser as it was before ParseCCFB, kept
// as the oracle of what a parse accepts and what it reads: one pass that
// validates and fills at once.
func refUnmarshalCCFB(f *CCFB, buf []byte) error {
	var hdr rtcpHeader
	if err := hdr.unmarshal(buf); err != nil {
		return err
	}
	if hdr.Type != TypeTransportFeedback || hdr.Fmt != FmtCCFB {
		return fmt.Errorf("rtp: not a ccfb packet (pt=%d fmt=%d)", hdr.Type, hdr.Fmt)
	}
	size, err := declaredSize(hdr, buf, rtcpHeaderSize+8)
	if err != nil {
		return err
	}
	buf = buf[:size]
	f.SenderSSRC = binary.BigEndian.Uint32(buf[4:])
	f.Timestamp = fromNTP32(binary.BigEndian.Uint32(buf[len(buf)-4:]))
	body := buf[8 : len(buf)-4]
	f.Reports = f.Reports[:0]
	off := 0
	for off < len(body) {
		if off+8 > len(body) {
			return ErrShortPacket
		}
		r := CCFBReport{
			SSRC:     binary.BigEndian.Uint32(body[off:]),
			BeginSeq: binary.BigEndian.Uint16(body[off+4:]),
		}
		n := int(binary.BigEndian.Uint16(body[off+6:]))
		if n > maxCCFBMetrics {
			return fmt.Errorf("rtp: ccfb report with %d metric blocks exceeds maximum", n)
		}
		off += 8
		words := 2 * (n + n%2) // padded to 32 bits
		if off+words > len(body) {
			return ErrShortPacket
		}
		r.Metrics = make([]CCFBMetric, n)
		for i := range r.Metrics {
			w := binary.BigEndian.Uint16(body[off+2*i:])
			if w>>15 == 0 {
				continue
			}
			r.Metrics[i] = CCFBMetric{Received: true, ECN: uint8(w >> 13 & 0x3),
				ArrivalOffset: time.Duration(w&atoMax) * atoUnit}
		}
		off += words
		f.Reports = append(f.Reports, r)
	}
	return nil
}
