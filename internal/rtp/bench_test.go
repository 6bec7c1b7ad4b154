package rtp

import (
	"testing"
	"time"
)

func BenchmarkHeaderMarshal(b *testing.B) {
	h := Header{Marker: true, PayloadType: 96, SequenceNumber: 1, Timestamp: 2, SSRC: 3}
	h.Extensions = tseqExt(7)
	buf := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.MarshalTo(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeaderUnmarshal(b *testing.B) {
	h := Header{Marker: true, PayloadType: 96, SequenceNumber: 1, Timestamp: 2, SSRC: 3}
	h.Extensions = tseqExt(7)
	buf, err := marshalHeader(&h)
	if err != nil {
		b.Fatal(err)
	}
	var g Header
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTWCCMarshal(b *testing.B) {
	fb := &TWCC{BaseSeq: 100}
	at := time.Second
	for i := 0; i < 100; i++ {
		received := i%11 != 0
		a := Arrival{Received: received}
		if received {
			at += 500 * time.Microsecond
			a.At = at
		}
		fb.Packets = append(fb.Packets, a)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fb.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTWCCUnmarshal(b *testing.B) {
	fb := &TWCC{BaseSeq: 100}
	at := time.Second
	for i := 0; i < 100; i++ {
		at += 500 * time.Microsecond
		fb.Packets = append(fb.Packets, Arrival{Received: true, At: at})
	}
	buf, err := fb.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	var g TWCC
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := g.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCCFBReportRoundTrip is one reporting interval of the RFC 8888
// path at the campaign's operating point (≈25 Mbps, 256-packet window,
// 10 ms reports) as a run takes it: record the interval's arrivals, write
// the report straight into a reused buffer (a datagram slot's), and read
// every metric word of it in place, as the sender does.
func BenchmarkCCFBReportRoundTrip(b *testing.B) {
	g := NewCCFBGenerator(1, 2, 256)
	var buf []byte
	seq, now := uint16(0), time.Duration(0)
	received := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 26; k++ {
			now += 385 * time.Microsecond
			g.Record(seq, now)
			seq++
		}
		buf, _ = g.AppendReport(buf[:0], now)
		v, err := ParseCCFB(buf)
		if err != nil {
			b.Fatal(err)
		}
		for blk, ok := v.Next(); ok; blk, ok = v.Next() {
			for k := range blk.Len() {
				if r, _, _ := DecodeCCFBWord(blk.Word(k)); r {
					received++
				}
			}
		}
	}
	if received == 0 {
		b.Fatal("no packet reported received")
	}
}

// BenchmarkCCFBReportDecoded is the same interval through the decoded
// types: Report (an AppendReport decoded), AppendTo, then Unmarshal into a
// struct reused across reports. It is what a tool that wants CCFB values
// pays.
func BenchmarkCCFBReportDecoded(b *testing.B) {
	g := NewCCFBGenerator(1, 2, 256)
	var parsed CCFB
	var buf []byte
	seq, now := uint16(0), time.Duration(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 26; k++ {
			now += 385 * time.Microsecond
			g.Record(seq, now)
			seq++
		}
		var err error
		if buf, err = g.Report(now).AppendTo(buf[:0]); err != nil {
			b.Fatal(err)
		}
		if err := parsed.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTWCCRoundTrip is one reporting interval of the transport-wide
// feedback path at the campaign's operating point (≈25 Mbps, 50 ms
// reports): record the interval's arrivals, flush them into the recorder's
// packet, append it into a reused buffer (a datagram slot's), and parse it
// into a struct the sender reuses.
func BenchmarkTWCCRoundTrip(b *testing.B) {
	r := NewTWCCRecorder(1, 2)
	var parsed TWCC
	var buf []byte
	seq, now := uint16(0), time.Duration(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		twccInterval(r, &seq, &now)
		var err error
		if buf, err = r.Flush().AppendTo(buf[:0]); err != nil {
			b.Fatal(err)
		}
		if err := parsed.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPacketize makes and releases 100 KB frames: the steady state of a
// sender whose packets all come back.
func BenchmarkPacketize(b *testing.B) {
	p := NewPacketizer(1, 96, 1200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, pkt := range p.Packetize(FrameInfo{Num: uint32(i), Size: 100_000}) {
			pkt.Release()
		}
	}
}
