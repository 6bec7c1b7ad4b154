package rtp

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"time"
)

// fuzzSeed adds buf plus a few truncations of it to the corpus.
func fuzzSeed(f *testing.F, buf []byte) {
	f.Helper()
	f.Add(buf)
	for _, n := range []int{0, 1, len(buf) / 2, len(buf) - 1} {
		if n >= 0 && n < len(buf) {
			f.Add(buf[:n])
		}
	}
}

// codec is the serializing half of an RTCP packet type.
type codec interface {
	AppendTo(dst []byte) ([]byte, error)
}

// checkAppendTo holds a parsed packet's AppendTo after a prefix to its
// AppendTo into a new buffer. Appended after a prefix into a buffer whose
// spare capacity holds stale bytes (a recycled datagram slot), it leaves the
// prefix as it was and writes exactly the new buffer's bytes, and it
// allocates nothing; a packet AppendTo(nil) refuses, AppendTo refuses there
// too and returns its dst unchanged. It returns the new buffer's bytes, nil
// for a refused packet.
func checkAppendTo(t *testing.T, pkt codec) []byte {
	t.Helper()
	want, err := pkt.AppendTo(nil)
	prefix := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x5A}
	dst := make([]byte, len(prefix), len(prefix)+len(want)+16)
	copy(dst, prefix)
	stale := dst[len(prefix):cap(dst)]
	for i := range stale {
		stale[i] = 0xFF
	}
	got, appendErr := pkt.AppendTo(dst)
	if (err == nil) != (appendErr == nil) {
		t.Fatalf("AppendTo(nil) error %v, AppendTo error %v", err, appendErr)
	}
	if err != nil {
		if !bytes.Equal(got, prefix) {
			t.Fatalf("a failed AppendTo returned % x, not its dst", got)
		}
		return nil
	}
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("AppendTo after a %d-byte prefix wrote\n% x\nAppendTo(nil) wrote\n% x", len(prefix), got, want)
	}
	if n := testing.AllocsPerRun(1, func() { got, _ = pkt.AppendTo(got[:len(prefix)]) }); n != 0 {
		t.Fatalf("AppendTo into spare capacity: %.0f allocations, want 0", n)
	}
	return want
}

// declaredLen is the packet size an RTCP header claims.
func declaredLen(buf []byte) int {
	return 4 * (int(buf[2])<<8 | int(buf[3]) + 1)
}

// FuzzTWCCUnmarshal feeds arbitrary bytes to the TWCC parser: it must never
// panic, whatever it accepts must survive a marshal→unmarshal roundtrip, and
// its AppendTo after a prefix must agree with AppendTo(nil) (checkAppendTo).
func FuzzTWCCUnmarshal(f *testing.F) {
	valid := &TWCC{
		SenderSSRC: 0x1234, MediaSSRC: 0x5678, BaseSeq: 100, FbPktCount: 3,
		Packets: []Arrival{
			{Received: true, At: 640 * time.Millisecond},
			{Received: false},
			{Received: true, At: 645 * time.Millisecond},
			{Received: true, At: 900 * time.Millisecond},
		},
	}
	if buf, err := valid.Marshal(); err == nil {
		fuzzSeed(f, buf)
	}
	long := &TWCC{SenderSSRC: 1, MediaSSRC: 2, BaseSeq: 65530, Packets: make([]Arrival, 100)}
	for i := range long.Packets {
		if i%3 != 0 {
			long.Packets[i] = Arrival{Received: true, At: 64*time.Millisecond + time.Duration(i)*deltaUnit}
		}
	}
	if buf, err := long.Marshal(); err == nil {
		fuzzSeed(f, buf)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var fb TWCC
		if err := fb.Unmarshal(data); err != nil {
			return
		}
		// Accepted input: the parsed packet must re-marshal and parse back
		// to the same reception pattern.
		out := checkAppendTo(t, &fb)
		if out == nil {
			// Some accepted packets are unmarshalable only because of delta
			// overflow limits; that is fine as long as parsing didn't panic.
			return
		}
		var fb2 TWCC
		if err := fb2.Unmarshal(out); err != nil {
			t.Fatalf("re-marshaled packet rejected: %v", err)
		}
		if fb2.BaseSeq != fb.BaseSeq || len(fb2.Packets) != len(fb.Packets) {
			t.Fatalf("roundtrip changed shape: base %d→%d, %d→%d packets",
				fb.BaseSeq, fb2.BaseSeq, len(fb.Packets), len(fb2.Packets))
		}
		for i := range fb.Packets {
			if fb.Packets[i].Received != fb2.Packets[i].Received {
				t.Fatalf("roundtrip changed reception of packet %d", i)
			}
		}
	})
}

// FuzzCCFBUnmarshal feeds arbitrary bytes to the RFC 8888 parser: no panics,
// ParseCCFB and Unmarshal accept exactly what the one-pass parser they
// replaced (refUnmarshalCCFB) accepts and read what it reads — Unmarshal's
// metrics, and the view's words decoded in place — accepted packets
// roundtrip, and AppendTo agrees with Marshal.
func FuzzCCFBUnmarshal(f *testing.F) {
	valid := &CCFB{
		SenderSSRC: 0xABCD,
		Timestamp:  2 * time.Second,
		Reports: []CCFBReport{{
			SSRC: 0x1234, BeginSeq: 500,
			Metrics: []CCFBMetric{
				{Received: true, ArrivalOffset: 30 * time.Millisecond},
				{Received: false},
				{Received: true, ECN: 1, ArrivalOffset: 10 * time.Millisecond},
			},
		}},
	}
	if buf, err := valid.Marshal(); err == nil {
		fuzzSeed(f, buf)
	}
	two := &CCFB{SenderSSRC: 7, Timestamp: time.Second, Reports: []CCFBReport{
		{SSRC: 1, BeginSeq: 65535, Metrics: []CCFBMetric{{Received: true}}},
		{SSRC: 2, BeginSeq: 0, Metrics: []CCFBMetric{{Received: true, ArrivalOffset: time.Second}, {}}},
	}}
	if buf, err := two.Marshal(); err == nil {
		fuzzSeed(f, buf)
	}
	fuzzSeed(f, ccfbWithBlock(0))   // an empty report block: parsed, not marshalled
	f.Add(ccfbWithBlock(1<<14 + 1)) // one metric block past RFC 8888's bound: refused

	f.Fuzz(func(t *testing.T, data []byte) {
		var fb, ref CCFB
		err, refErr := fb.Unmarshal(data), refUnmarshalCCFB(&ref, data)
		v, viewErr := ParseCCFB(data)
		if (err == nil) != (refErr == nil) || (viewErr == nil) != (refErr == nil) {
			t.Fatalf("Unmarshal: %v, ParseCCFB: %v, the one-pass parser: %v", err, viewErr, refErr)
		}
		if err != nil {
			return
		}
		if fb.SenderSSRC != ref.SenderSSRC || fb.Timestamp != ref.Timestamp || len(fb.Reports) != len(ref.Reports) ||
			v.SenderSSRC != ref.SenderSSRC || v.Timestamp != ref.Timestamp {
			t.Fatalf("parsed %+v and a view of %#x at %v, the one-pass parser %+v", fb, v.SenderSSRC, v.Timestamp, ref)
		}
		for i, r := range ref.Reports {
			got := fb.Reports[i]
			b, ok := v.Next()
			if !ok || got.SSRC != r.SSRC || got.BeginSeq != r.BeginSeq || !slices.Equal(got.Metrics, r.Metrics) ||
				b.SSRC != r.SSRC || b.BeginSeq != r.BeginSeq || b.Len() != len(r.Metrics) {
				t.Fatalf("report %d: parsed %+v, view %+v, the one-pass parser %+v", i, got, b, r)
			}
			for k, m := range r.Metrics {
				if received, ecn, offset := DecodeCCFBWord(b.Word(k)); (CCFBMetric{received, ecn, offset}) != m {
					t.Fatalf("report %d metric %d: the view reads %v %d %v, the one-pass parser %+v", i, k, received, ecn, offset, m)
				}
			}
		}
		if _, more := v.Next(); more {
			t.Fatalf("the view has more than %d report blocks", len(ref.Reports))
		}
		out := checkAppendTo(t, &fb)
		if out == nil {
			return
		}
		var fb2 CCFB
		if err := fb2.Unmarshal(out); err != nil {
			t.Fatalf("re-marshaled packet rejected: %v", err)
		}
		if len(fb2.Reports) != len(fb.Reports) {
			t.Fatalf("roundtrip changed report count %d→%d", len(fb.Reports), len(fb2.Reports))
		}
		for i := range fb.Reports {
			if fb2.Reports[i].BeginSeq != fb.Reports[i].BeginSeq ||
				len(fb2.Reports[i].Metrics) != len(fb.Reports[i].Metrics) {
				t.Fatalf("roundtrip changed report %d shape", i)
			}
		}
	})
}

// FuzzNACKUnmarshal feeds arbitrary bytes to the RFC 4585 Generic NACK
// parser: no panics, accepted packets must roundtrip, and AppendTo agrees
// with Marshal.
func FuzzNACKUnmarshal(f *testing.F) {
	one := &NACK{SenderSSRC: 1, MediaSSRC: 0x1234, Pairs: AppendNackPairs(nil, []uint16{7})}
	if buf, err := one.AppendTo(nil); err == nil {
		fuzzSeed(f, buf)
	}
	many := &NACK{SenderSSRC: 0xABCD, MediaSSRC: 2,
		Pairs: AppendNackPairs(nil, []uint16{100, 101, 105, 116, 400, 65535, 0})}
	if buf, err := many.AppendTo(nil); err == nil {
		fuzzSeed(f, buf)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var n NACK
		if err := n.Unmarshal(data); err != nil {
			return
		}
		out := checkAppendTo(t, &n)
		if out == nil {
			t.Fatal("accepted NACK fails to marshal")
		}
		var n2 NACK
		if err := n2.Unmarshal(out); err != nil {
			t.Fatalf("re-marshaled NACK rejected: %v", err)
		}
		if n2.SenderSSRC != n.SenderSSRC || n2.MediaSSRC != n.MediaSSRC ||
			len(n2.Pairs) != len(n.Pairs) {
			t.Fatalf("roundtrip changed shape: %+v vs %+v", n2, n)
		}
		for i := range n.Pairs {
			if n.Pairs[i] != n2.Pairs[i] {
				t.Fatalf("roundtrip changed pair %d", i)
			}
		}
	})
}

// FuzzRTXUnwrap feeds arbitrary bytes through the RTP parser into the
// RFC 4588 unwrapper: no panics, and whatever unwraps must rewrap to the
// same original sequence number and payload.
func FuzzRTXUnwrap(f *testing.F) {
	pk := NewPacketizer(0x1234, 96, 1200)
	for _, p := range pk.Packetize(FrameInfo{Num: 3, Size: 2600, Keyframe: true}) {
		rtx := pk.WrapRTX(p, 0x5243, 97, 11)
		if buf, err := rtx.Marshal(); err == nil {
			fuzzSeed(f, buf)
		}
		rtx.Release()
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var p Packet
		if err := p.Unmarshal(data); err != nil {
			return
		}
		orig, osn, err := UnwrapRTX(&p, 0x1234, 96)
		if err != nil {
			return
		}
		if orig.Header.SequenceNumber != osn {
			t.Fatalf("unwrapped seq %d != osn %d", orig.Header.SequenceNumber, osn)
		}
		re := pk.WrapRTX(&orig, p.Header.SSRC, p.Header.PayloadType, p.Header.SequenceNumber)
		defer re.Release()
		back, osn2, err := UnwrapRTX(re, 0x1234, 96)
		if err != nil {
			t.Fatalf("rewrap not unwrappable: %v", err)
		}
		if osn2 != osn || string(back.Payload) != string(orig.Payload) {
			t.Fatal("wrap/unwrap changed osn or payload")
		}
	})
}

// FuzzRTCPReports feeds arbitrary bytes to the SR, RR and PLI parsers. For
// each, an accepted packet roundtrips, AppendTo agrees with Marshal, and the
// bytes past the length its header declares never change the parse: the
// packet cut at its declared end, or followed by junk, parses the same.
func FuzzRTCPReports(f *testing.F) {
	sr := &SenderReport{SSRC: 0x1234, NTPTime: 90 * time.Second, RTPTime: 81000,
		PacketCount: 1000, OctetCount: 1_200_000}
	if buf, err := sr.AppendTo(nil); err == nil {
		fuzzSeed(f, buf)
	}
	rr := &ReceiverReport{SSRC: 0x5678, Blocks: []ReportBlock{{
		SSRC: 0x1234, FractionLost: 12, CumulativeLost: 345,
		HighestSeq: 7000, Jitter: 90, LastSR: 0x11223344, DelaySinceLastSR: 0x100,
	}}}
	if buf, err := rr.AppendTo(nil); err == nil {
		fuzzSeed(f, buf)
		f.Add(append(bytes.Clone(buf), 0xAA, 0xBB, 0xCC, 0xDD))
	}
	pli := &PLI{SenderSSRC: 1, MediaSSRC: 0x1234}
	if buf, err := pli.AppendTo(nil); err == nil {
		fuzzSeed(f, buf)
	}
	f.Add(rrDeclaring(1, 1)) // one block announced, none declared

	f.Fuzz(func(t *testing.T, data []byte) {
		var s SenderReport
		if err := s.Unmarshal(data); err == nil {
			out := checkAppendTo(t, &s)
			if out == nil {
				t.Fatal("accepted SR fails to marshal")
			}
			var s2 SenderReport
			if err := s2.Unmarshal(out); err != nil {
				t.Fatalf("re-marshaled SR rejected: %v", err)
			}
			if s2.SSRC != s.SSRC || s2.RTPTime != s.RTPTime ||
				s2.PacketCount != s.PacketCount || s2.OctetCount != s.OctetCount {
				t.Fatal("SR roundtrip changed fields")
			}
			checkDeclaredEnd(t, data, &s, func(buf []byte) any {
				var x SenderReport
				if x.Unmarshal(buf) != nil {
					return nil
				}
				return &x
			})
		}
		var r ReceiverReport
		if err := r.Unmarshal(data); err == nil {
			out := checkAppendTo(t, &r)
			if out == nil {
				t.Fatal("accepted RR fails to marshal")
			}
			var r2 ReceiverReport
			if err := r2.Unmarshal(out); err != nil {
				t.Fatalf("re-marshaled RR rejected: %v", err)
			}
			if r2.SSRC != r.SSRC || len(r2.Blocks) != len(r.Blocks) {
				t.Fatal("RR roundtrip changed shape")
			}
			checkDeclaredEnd(t, data, &r, func(buf []byte) any {
				var x ReceiverReport
				if x.Unmarshal(buf) != nil {
					return nil
				}
				return &x
			})
		}
		var p PLI
		if err := p.Unmarshal(data); err == nil {
			out := checkAppendTo(t, &p)
			if out == nil {
				t.Fatal("accepted PLI fails to marshal")
			}
			var p2 PLI
			if err := p2.Unmarshal(out); err != nil || p2 != p {
				t.Fatalf("PLI roundtrip: %+v, %v; want %+v", p2, err, p)
			}
			checkDeclaredEnd(t, data, &p, func(buf []byte) any {
				var x PLI
				if x.Unmarshal(buf) != nil {
					return nil
				}
				return &x
			})
		}
	})
}

// checkDeclaredEnd holds an accepted packet's parse to the bytes its header
// declares: cut at the declared end, or with junk after it, data must parse
// to want again.
func checkDeclaredEnd(t *testing.T, data []byte, want any, parse func([]byte) any) {
	t.Helper()
	end := declaredLen(data)
	for _, buf := range [][]byte{data[:end], append(bytes.Clone(data[:end]), 0x80, 0xC8, 0xFF, 0xFF)} {
		if got := parse(buf); !reflect.DeepEqual(got, want) {
			t.Fatalf("the %d bytes past the declared %d changed the parse: %+v, want %+v", len(buf)-end, end, got, want)
		}
	}
}
