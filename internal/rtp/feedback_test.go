package rtp

import (
	"bytes"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func twccRoundTrip(t *testing.T, f *TWCC) *TWCC {
	t.Helper()
	buf, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf)%4 != 0 {
		t.Fatalf("twcc wire length %d not 32-bit aligned", len(buf))
	}
	var g TWCC
	if err := g.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	return &g
}

func TestTWCCRoundTripAllReceived(t *testing.T) {
	f := &TWCC{
		SenderSSRC: 1, MediaSSRC: 2, BaseSeq: 100, FbPktCount: 3,
		Packets: []Arrival{
			{Received: true, At: 1000 * time.Millisecond},
			{Received: true, At: 1002 * time.Millisecond},
			{Received: true, At: 1009 * time.Millisecond},
		},
	}
	g := twccRoundTrip(t, f)
	if g.SenderSSRC != 1 || g.MediaSSRC != 2 || g.BaseSeq != 100 || g.FbPktCount != 3 {
		t.Errorf("fields = %+v", g)
	}
	if len(g.Packets) != 3 {
		t.Fatalf("got %d packets", len(g.Packets))
	}
	for i, p := range g.Packets {
		if !p.Received {
			t.Errorf("packet %d lost after round trip", i)
		}
		if d := p.At - f.Packets[i].At; d < -deltaUnit || d > deltaUnit {
			t.Errorf("packet %d arrival %v, want ≈%v", i, p.At, f.Packets[i].At)
		}
	}
}

func TestTWCCRoundTripWithLosses(t *testing.T) {
	f := &TWCC{
		SenderSSRC: 1, MediaSSRC: 2, BaseSeq: 65530, // wraps
		Packets: []Arrival{
			{Received: true, At: 500 * time.Millisecond},
			{},
			{},
			{Received: true, At: 540 * time.Millisecond},
			{},
			{Received: true, At: 541 * time.Millisecond},
		},
	}
	g := twccRoundTrip(t, f)
	for i, p := range g.Packets {
		if p.Received != f.Packets[i].Received {
			t.Errorf("packet %d received = %v, want %v", i, p.Received, f.Packets[i].Received)
		}
	}
}

func TestTWCCReordering(t *testing.T) {
	// Second packet arrived before the first: negative delta, needs the
	// large-delta symbol.
	f := &TWCC{
		BaseSeq: 0,
		Packets: []Arrival{
			{Received: true, At: 700 * time.Millisecond},
			{Received: true, At: 650 * time.Millisecond},
		},
	}
	g := twccRoundTrip(t, f)
	if d := g.Packets[1].At - 650*time.Millisecond; d < -deltaUnit || d > deltaUnit {
		t.Errorf("reordered arrival = %v", g.Packets[1].At)
	}
}

func TestTWCCLongLossRun(t *testing.T) {
	// >7 identical symbols triggers the run-length encoder.
	pkts := []Arrival{{Received: true, At: time.Second}}
	for i := 0; i < 100; i++ {
		pkts = append(pkts, Arrival{})
	}
	pkts = append(pkts, Arrival{Received: true, At: time.Second + 50*time.Millisecond})
	f := &TWCC{Packets: pkts}
	g := twccRoundTrip(t, f)
	if len(g.Packets) != len(pkts) {
		t.Fatalf("got %d packets, want %d", len(g.Packets), len(pkts))
	}
	for i := 1; i <= 100; i++ {
		if g.Packets[i].Received {
			t.Fatalf("packet %d should be lost", i)
		}
	}
	if !g.Packets[101].Received {
		t.Error("final packet should be received")
	}
}

func TestTWCCEmptyRejected(t *testing.T) {
	f := &TWCC{}
	if _, err := f.Marshal(); err == nil {
		t.Error("empty feedback should be rejected")
	}
}

func TestTWCCDeltaOverflow(t *testing.T) {
	f := &TWCC{Packets: []Arrival{
		{Received: true, At: 0},
		{Received: true, At: 20 * time.Second},
	}}
	if _, err := f.Marshal(); err == nil {
		t.Error("a 20 s delta should overflow the 16-bit delta field")
	}
}

func TestTWCCRejectsWrongType(t *testing.T) {
	c := &CCFB{SenderSSRC: 1, Reports: []CCFBReport{{SSRC: 2, Metrics: []CCFBMetric{{}}}}}
	buf, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var g TWCC
	if err := g.Unmarshal(buf); err == nil {
		t.Error("TWCC parser accepted a CCFB packet")
	}
}

// Property: TWCC round-trips received flags exactly and arrival times to
// within the 250 µs quantum for arbitrary loss patterns.
func TestPropertyTWCCRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%300 + 1
		at := time.Duration(rng.Intn(1000)) * time.Millisecond
		pkts := make([]Arrival, count)
		anyReceived := false
		for i := range pkts {
			if rng.Float64() < 0.7 {
				at += time.Duration(rng.Intn(30)) * time.Millisecond
				pkts[i] = Arrival{Received: true, At: at}
				anyReceived = true
			}
		}
		if !anyReceived {
			pkts[0] = Arrival{Received: true, At: at}
		}
		fb := &TWCC{BaseSeq: uint16(rng.Intn(1 << 16)), Packets: pkts}
		buf, err := fb.Marshal()
		if err != nil {
			return false
		}
		var g TWCC
		if err := g.Unmarshal(buf); err != nil {
			return false
		}
		if len(g.Packets) != count || g.BaseSeq != fb.BaseSeq {
			return false
		}
		for i := range pkts {
			if g.Packets[i].Received != pkts[i].Received {
				return false
			}
			if pkts[i].Received {
				d := g.Packets[i].At - pkts[i].At
				if d < -deltaUnit || d > deltaUnit {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTWCCRecorderBasic(t *testing.T) {
	r := NewTWCCRecorder(10, 20)
	r.Record(100, 1*time.Millisecond)
	r.Record(101, 2*time.Millisecond)
	r.Record(103, 4*time.Millisecond) // 102 lost
	fb := r.Flush()
	if fb == nil {
		t.Fatal("Flush returned nil")
	}
	if fb.BaseSeq != 100 || len(fb.Packets) != 4 {
		t.Fatalf("base=%d n=%d", fb.BaseSeq, len(fb.Packets))
	}
	if !fb.Packets[0].Received || !fb.Packets[1].Received || fb.Packets[2].Received || !fb.Packets[3].Received {
		t.Errorf("status = %+v", fb.Packets)
	}
	if fb.SenderSSRC != 10 || fb.MediaSSRC != 20 {
		t.Errorf("ssrcs = %d/%d", fb.SenderSSRC, fb.MediaSSRC)
	}
}

func TestTWCCRecorderConsecutiveFlushes(t *testing.T) {
	r := NewTWCCRecorder(1, 2)
	r.Record(0, time.Millisecond)
	fb1 := r.Flush()
	if fb1.FbPktCount != 0 {
		t.Errorf("first FbPktCount = %d", fb1.FbPktCount)
	}
	if fb := r.Flush(); fb != nil {
		t.Error("second flush with no new packets should return nil")
	}
	r.Record(1, 2*time.Millisecond)
	fb2 := r.Flush()
	if fb2 == nil || fb2.BaseSeq != 1 || fb2.FbPktCount != 1 {
		t.Errorf("fb2 = %+v", fb2)
	}
}

func TestTWCCRecorderIgnoresAlreadyFlushed(t *testing.T) {
	r := NewTWCCRecorder(1, 2)
	r.Record(5, time.Millisecond)
	r.Flush()
	r.Record(3, 2*time.Millisecond) // before the flushed range
	if fb := r.Flush(); fb != nil {
		t.Errorf("stale packet produced feedback: %+v", fb)
	}
}

func TestTWCCRecorderSeqWrap(t *testing.T) {
	r := NewTWCCRecorder(1, 2)
	r.Record(65535, 1*time.Millisecond)
	r.Record(0, 2*time.Millisecond)
	r.Record(1, 3*time.Millisecond)
	fb := r.Flush()
	if fb == nil || fb.BaseSeq != 65535 || len(fb.Packets) != 3 {
		t.Fatalf("fb = %+v", fb)
	}
	for i, p := range fb.Packets {
		if !p.Received {
			t.Errorf("packet %d lost across wrap", i)
		}
	}
}

func TestCCFBRoundTrip(t *testing.T) {
	f := &CCFB{
		SenderSSRC: 7,
		Timestamp:  1234 * time.Millisecond,
		Reports: []CCFBReport{{
			SSRC:     9,
			BeginSeq: 500,
			Metrics: []CCFBMetric{
				{Received: true, ArrivalOffset: 30 * time.Millisecond},
				{},
				{Received: true, ECN: 2, ArrivalOffset: 5 * time.Millisecond},
			},
		}},
	}
	buf, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf)%4 != 0 {
		t.Fatalf("ccfb wire length %d not aligned", len(buf))
	}
	var g CCFB
	if err := g.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if g.SenderSSRC != 7 || len(g.Reports) != 1 {
		t.Fatalf("parsed = %+v", g)
	}
	if d := g.Timestamp - f.Timestamp; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("timestamp = %v, want ≈%v", g.Timestamp, f.Timestamp)
	}
	r := g.Reports[0]
	if r.SSRC != 9 || r.BeginSeq != 500 || len(r.Metrics) != 3 {
		t.Fatalf("report = %+v", r)
	}
	if !r.Metrics[0].Received || r.Metrics[1].Received || !r.Metrics[2].Received {
		t.Errorf("received flags = %+v", r.Metrics)
	}
	if r.Metrics[2].ECN != 2 {
		t.Errorf("ECN = %d", r.Metrics[2].ECN)
	}
	if d := r.Metrics[0].ArrivalOffset - 30*time.Millisecond; d < -atoUnit || d > atoUnit {
		t.Errorf("ATO = %v", r.Metrics[0].ArrivalOffset)
	}
}

func TestCCFBATOSaturates(t *testing.T) {
	f := &CCFB{Reports: []CCFBReport{{
		Metrics: []CCFBMetric{{Received: true, ArrivalOffset: time.Minute}},
	}}}
	buf, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var g CCFB
	if err := g.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	want := time.Duration(atoMax) * atoUnit
	if got := g.Reports[0].Metrics[0].ArrivalOffset; got != want {
		t.Errorf("saturated ATO = %v, want %v", got, want)
	}
}

func TestCCFBEmptyReportRejected(t *testing.T) {
	f := &CCFB{Reports: []CCFBReport{{}}}
	if _, err := f.Marshal(); err == nil {
		t.Error("report without metric blocks should be rejected")
	}
}

func TestCCFBOddMetricsPadding(t *testing.T) {
	f := &CCFB{Reports: []CCFBReport{{
		BeginSeq: 1,
		Metrics:  []CCFBMetric{{Received: true}},
	}}}
	buf, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var g CCFB
	if err := g.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if len(g.Reports[0].Metrics) != 1 {
		t.Errorf("metrics = %d, want 1 (padding must not add a block)", len(g.Reports[0].Metrics))
	}
}

// Property: CCFB round-trips received flags, ECN, and offsets (within one
// 1/1024 s unit) for arbitrary reports.
func TestPropertyCCFBRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%200 + 1
		rep := CCFBReport{SSRC: rng.Uint32(), BeginSeq: uint16(rng.Intn(1 << 16))}
		for i := 0; i < count; i++ {
			m := CCFBMetric{}
			if rng.Float64() < 0.8 {
				m.Received = true
				m.ECN = uint8(rng.Intn(4))
				m.ArrivalOffset = time.Duration(rng.Intn(8000)) * time.Millisecond
			}
			rep.Metrics = append(rep.Metrics, m)
		}
		fb := &CCFB{SenderSSRC: rng.Uint32(), Reports: []CCFBReport{rep}, Timestamp: time.Duration(rng.Intn(60000)) * time.Millisecond}
		buf, err := fb.Marshal()
		if err != nil {
			return false
		}
		var g CCFB
		if err := g.Unmarshal(buf); err != nil {
			return false
		}
		if len(g.Reports) != 1 || len(g.Reports[0].Metrics) != count {
			return false
		}
		for i, m := range g.Reports[0].Metrics {
			want := rep.Metrics[i]
			if m.Received != want.Received {
				return false
			}
			if m.Received {
				if m.ECN != want.ECN {
					return false
				}
				d := m.ArrivalOffset - want.ArrivalOffset
				if d < -atoUnit || d > atoUnit {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCCFBGeneratorCoversWindow(t *testing.T) {
	g := NewCCFBGenerator(1, 2, 8)
	for i := 0; i < 20; i++ {
		g.Record(uint16(i), time.Duration(i)*time.Millisecond)
	}
	fb := g.Report(100 * time.Millisecond)
	if fb == nil {
		t.Fatal("nil report")
	}
	rep := fb.Reports[0]
	if rep.BeginSeq != 12 || len(rep.Metrics) != 8 {
		t.Fatalf("begin=%d n=%d, want 12 and 8", rep.BeginSeq, len(rep.Metrics))
	}
	for i, m := range rep.Metrics {
		if !m.Received {
			t.Errorf("metric %d not received", i)
		}
	}
}

// TestCCFBGeneratorAckWindowDefect reproduces the §4.2.1 finding: with the
// library's 64-packet window and 10 ms reports, packets that arrive faster
// than 6.4 packets/ms fall out of the window before ever being acknowledged.
func TestCCFBGeneratorAckWindowDefect(t *testing.T) {
	g := NewCCFBGenerator(1, 2, 64)
	// 100 packets arrive between two reports (≈ a 12 Mbps burst).
	for i := 0; i < 100; i++ {
		g.Record(uint16(i), time.Duration(i)*100*time.Microsecond)
	}
	fb := g.Report(10 * time.Millisecond)
	rep := fb.Reports[0]
	if rep.BeginSeq != 36 {
		t.Errorf("BeginSeq = %d, want 36: packets 0..35 are never acknowledged", rep.BeginSeq)
	}
	// The widened 256-packet window covers everything.
	g2 := NewCCFBGenerator(1, 2, 256)
	for i := 0; i < 100; i++ {
		g2.Record(uint16(i), time.Duration(i)*100*time.Microsecond)
	}
	fb2 := g2.Report(10 * time.Millisecond)
	rep2 := fb2.Reports[0]
	received := 0
	for _, m := range rep2.Metrics {
		if m.Received {
			received++
		}
	}
	if received != 100 {
		t.Errorf("256-window report acknowledges %d packets, want all 100", received)
	}
}

func TestCCFBGeneratorNilBeforeFirstPacket(t *testing.T) {
	g := NewCCFBGenerator(1, 2, 64)
	if fb := g.Report(time.Second); fb != nil {
		t.Error("report before any packet should be nil")
	}
}

func TestNTP32RoundTrip(t *testing.T) {
	for _, d := range []time.Duration{0, time.Millisecond, time.Second, 90 * time.Minute} {
		got := fromNTP32(ntp32(d))
		if diff := got - d; diff < -time.Millisecond || diff > time.Millisecond {
			t.Errorf("ntp32 round trip of %v = %v", d, got)
		}
	}
}

// twccInterval records one 50 ms reporting interval at ≈ 25 Mbps into r:
// 104 packets 480 µs apart, every 37th missing.
func twccInterval(r *TWCCRecorder, seq *uint16, now *time.Duration) {
	for k := 0; k < 104; k++ {
		*now += 480 * time.Microsecond
		if *seq%37 != 0 {
			r.Record(*seq, *now)
		}
		*seq++
	}
}

// TestTWCCFeedbackPathAllocations pins the steady-state allocation count of
// the transport-wide feedback path, as TestCCFBFeedbackPathAllocations does
// for RFC 8888: Flush fills the recorder's own packet, AppendTo keeps its
// symbols, deltas and chunks on that packet and writes into a buffer that
// has held a report before (a datagram slot's), and Unmarshal refills the
// struct it is called on, so a report allocates nothing.
func TestTWCCFeedbackPathAllocations(t *testing.T) {
	r := NewTWCCRecorder(1, 2)
	var parsed TWCC
	var wire []byte
	seq, now := uint16(65000), time.Duration(0) // through the sequence wrap
	report := func() {
		twccInterval(r, &seq, &now)
		var err error
		if wire, err = r.Flush().AppendTo(wire[:0]); err != nil {
			t.Fatal(err)
		}
		if err := parsed.Unmarshal(wire); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		report() // sizes every scratch slice
	}
	if n := testing.AllocsPerRun(100, report); n != 0 {
		t.Errorf("Record → Flush → AppendTo → Unmarshal allocates %.2f times per report, want 0", n)
	}
	var fb *TWCC
	if n := testing.AllocsPerRun(50, func() {
		twccInterval(r, &seq, &now)
		fb = r.Flush()
	}); n != 0 {
		t.Errorf("Record and Flush allocate %.2f times per report, want 0", n)
	}
	buf, err := fb.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := parsed.Unmarshal(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Unmarshal into a reused TWCC allocates %.0f times per call, want 0", n)
	}
	if len(parsed.Packets) != 104 || parsed.BaseSeq != fb.BaseSeq {
		t.Errorf("reused TWCC parsed to %d packets from %d, want 104 from %d", len(parsed.Packets), parsed.BaseSeq, fb.BaseSeq)
	}
}

// TestTWCCFlushPacketIsReused documents the lifetime contract: the packet
// Flush returns is the recorder's, overwritten by the next Flush.
func TestTWCCFlushPacketIsReused(t *testing.T) {
	r := NewTWCCRecorder(1, 2)
	r.Record(10, time.Millisecond)
	r.Record(12, 2*time.Millisecond)
	fb1 := r.Flush()
	buf1, err := fb1.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	r.Record(13, 3*time.Millisecond)
	fb2 := r.Flush()
	if fb1 != fb2 {
		t.Fatal("Flush returned a second packet; the recorder owns one")
	}
	if fb2.BaseSeq != 13 || len(fb2.Packets) != 1 || fb2.FbPktCount != 1 {
		t.Errorf("second flush = %+v", fb2)
	}
	var back TWCC
	if err := back.Unmarshal(buf1); err != nil {
		t.Fatal(err)
	}
	if back.BaseSeq != 10 || len(back.Packets) != 3 || back.Packets[1].Received {
		t.Errorf("the first report's bytes changed with the second flush: %+v", back)
	}
}

// TestTWCCFlushGrowsReportGeometrically: reports that cover a steadily
// rising range — every one longer than any before — grow the recorder's
// report slice geometrically, so the whole run allocates O(log n) times,
// not once per new longest report.
func TestTWCCFlushGrowsReportGeometrically(t *testing.T) {
	const reports = 2000
	allocs := testing.AllocsPerRun(1, func() {
		r := NewTWCCRecorder(1, 2)
		seq, at := uint16(0), time.Duration(0)
		for n := 1; n <= reports; n++ {
			for k := 0; k < n; k++ {
				r.Record(seq, at)
				seq, at = seq+1, at+time.Microsecond
			}
			if fb := r.Flush(); fb == nil || len(fb.Packets) != n {
				t.Fatalf("report %d: %+v", n, fb)
			}
		}
	})
	// The ring doubles from 64 to 2 048 slots (two arrays each time); the
	// report's slice grows by append's factor.
	if limit := 4 * bits.Len(reports); allocs > float64(limit) {
		t.Errorf("%d reports of rising length allocate %.0f times, want at most %d", reports, allocs, limit)
	}
}

// TestTWCCRecorderResetMatchesNew: a recorder Reset after a stream —
// whatever it left in its ring, unflushed arrivals included — reports a new
// stream exactly as a new recorder does.
func TestTWCCRecorderResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	used := NewTWCCRecorder(9, 9)
	for seq := uint16(100); seq < 3100; seq += uint16(1 + rng.Intn(2)) {
		used.Record(seq, time.Duration(seq)*time.Millisecond)
		if rng.Intn(250) == 0 {
			used.Flush()
		}
	}
	if used.pending == 0 {
		t.Fatal("the used recorder holds no unflushed arrival")
	}
	used.Reset(1, 2)
	fresh := NewTWCCRecorder(1, 2)
	seq, now := uint16(40000), time.Duration(0)
	for round := 0; round < 200; round++ {
		for k := rng.Intn(300); k > 0; k-- {
			seq += uint16(1 + rng.Intn(3))
			now += time.Duration(rng.Intn(500)) * time.Microsecond
			used.Record(seq, now)
			fresh.Record(seq, now)
		}
		got, want := used.Flush(), fresh.Flush()
		if (got == nil) != (want == nil) {
			t.Fatalf("round %d: reset recorder reported %v, new one %v", round, got, want)
		}
		if got == nil {
			continue
		}
		gotWire, err1 := got.Marshal()
		wantWire, err2 := want.Marshal()
		if err1 != nil || err2 != nil || !bytes.Equal(gotWire, wantWire) {
			t.Fatalf("round %d: reset recorder's report differs from a new one's (%v, %v)", round, err1, err2)
		}
	}
}

// TestTWCCReuseMatchesFresh: a TWCC that is marshalled and unmarshalled
// into again and again — longer reports after shorter ones, large deltas
// after small, a rejected packet in between — produces the bytes and the
// packets a fresh struct does.
func TestTWCCReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var src, dst TWCC
	for round := 0; round < 2000; round++ {
		n := 1 + rng.Intn(200)
		pkts := make([]Arrival, n)
		at := time.Duration(rng.Intn(1000)) * time.Millisecond
		for i := range pkts {
			if rng.Intn(6) == 0 {
				continue
			}
			switch rng.Intn(12) {
			case 0:
				at += time.Duration(rng.Intn(4000)) * time.Millisecond // large delta
			case 1:
				at -= time.Duration(rng.Intn(20)) * time.Millisecond // reordered
			default:
				at += time.Duration(rng.Intn(3000)) * time.Microsecond
			}
			if at < 0 {
				at = 0
			}
			pkts[i] = Arrival{Received: true, At: at}
		}
		src.BaseSeq, src.FbPktCount, src.Packets = uint16(rng.Intn(1<<16)), uint8(round), pkts
		fresh := TWCC{BaseSeq: src.BaseSeq, FbPktCount: src.FbPktCount, Packets: pkts}
		got, gotErr := src.Marshal()
		want, wantErr := fresh.Marshal()
		if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("round %d: reused Marshal %x (%v), fresh %x (%v)", round, got, gotErr, want, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if round%5 == 0 {
			if dst.Unmarshal(got[:len(got)-4]) == nil {
				t.Fatalf("round %d: truncated packet accepted", round)
			}
			if len(dst.Packets) != 0 {
				t.Fatalf("round %d: %d packets left after a rejected datagram", round, len(dst.Packets))
			}
		}
		var clean TWCC
		if err := dst.Unmarshal(got); err != nil {
			t.Fatal(err)
		}
		if err := clean.Unmarshal(got); err != nil {
			t.Fatal(err)
		}
		if dst.BaseSeq != clean.BaseSeq || dst.FbPktCount != clean.FbPktCount || !reflect.DeepEqual(dst.Packets, clean.Packets) || len(dst.Packets) != n {
			t.Fatalf("round %d: reused Unmarshal differs from a fresh one", round)
		}
	}
}
