package rtp

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
	"time"
)

// RFC 8888 conformance vectors, assembled by hand from the field layout of
// §3.1 (one 32-bit word per group):
//
//	V=2 P=0 FMT=11 | PT=205 | length (words − 1)
//	SSRC of packet sender
//	SSRC of 1st RTP stream
//	begin_seq | num_reports
//	R ECN ATO (16 bits) per metric block, a zero block pads an odd count
//	…
//	report timestamp (middle 32 bits of the NTP format)
//
// ATO counts 1/1024 s before the report timestamp and saturates at 0x1FFF.
// The report timestamps are multiples of 2⁻⁹ s, which a nanosecond Duration
// holds exactly, so a parsed timestamp re-marshals to the same word (at a
// finer fraction the decode truncates, and the word comes back one lower).
var ccfbVectors = []struct {
	name string
	// wire is the packet, in hex; words are separated by spaces.
	wire string
	// build returns what Marshal must turn into wire; nil for a packet
	// only a foreign sender writes.
	build func() *CCFB
	// parsed is what Unmarshal must make of wire.
	parsed CCFB
	// canonical is what Marshal writes for parsed, when not wire itself.
	canonical string
}{
	{
		// A generator with a 7-packet window whose highest arrival, 2, has
		// just crossed the 65535→0 wrap: begin_seq 65532. 65532 and 65534
		// are lost, 65533 arrived 9.5 s ago (ATO saturated), 1 after 2.
		name: "generator report across the wrap",
		wire: "8bcd0008 0a0b0c0d 11223344 fffc0007 00009fff 00008016 80128009 800b0000 000a0580",
		build: func() *CCFB {
			g := NewCCFBGenerator(0x0A0B0C0D, 0x11223344, 7)
			g.Record(65533, 500*time.Millisecond)
			g.Record(65535, 10*time.Second)
			g.Record(0, 10003*time.Millisecond)
			g.Record(2, 10010*time.Millisecond)
			g.Record(1, 10012*time.Millisecond)
			g.Record(2, 10015*time.Millisecond)            // a duplicate: the first arrival counts
			return g.Report(10021484375 * time.Nanosecond) // 10 s and 0x0580/65536
		},
		parsed: CCFB{SenderSSRC: 0x0A0B0C0D, Timestamp: 10021484375 * time.Nanosecond,
			Reports: []CCFBReport{{SSRC: 0x11223344, BeginSeq: 65532, Metrics: []CCFBMetric{
				{},
				{Received: true, ArrivalOffset: 0x1FFF * atoUnit},
				{},
				{Received: true, ArrivalOffset: 22 * atoUnit},
				{Received: true, ArrivalOffset: 18 * atoUnit},
				{Received: true, ArrivalOffset: 9 * atoUnit},
				{Received: true, ArrivalOffset: 11 * atoUnit},
			}}}},
	},
	{
		// Two report blocks, all four ECN codepoints, an ATO of exactly
		// 8 s (one past the field) and one just under it, and a report
		// timestamp past 65 536 s, where the NTP seconds wrap.
		name: "two blocks, ECN, ATO bounds, timestamp wrap",
		wire: "8bcd0009 cafebabe 00000001 ffff0004 a000c001 ffff0000 00000002 12340002 80019ffe 00004000",
		build: func() *CCFB {
			return &CCFB{SenderSSRC: 0xCAFEBABE, Timestamp: 65536*time.Second + 250*time.Millisecond,
				Reports: []CCFBReport{
					{SSRC: 1, BeginSeq: 65535, Metrics: []CCFBMetric{
						{Received: true, ECN: 1},
						{Received: true, ECN: 2, ArrivalOffset: time.Millisecond},
						{Received: true, ECN: 3, ArrivalOffset: 8 * time.Second},
						{},
					}},
					{SSRC: 2, BeginSeq: 0x1234, Metrics: []CCFBMetric{
						{Received: true, ArrivalOffset: time.Second / 1024},
						{Received: true, ArrivalOffset: 7999 * time.Millisecond},
					}},
				}}
		},
		parsed: CCFB{SenderSSRC: 0xCAFEBABE, Timestamp: 250 * time.Millisecond,
			Reports: []CCFBReport{
				{SSRC: 1, BeginSeq: 65535, Metrics: []CCFBMetric{
					{Received: true, ECN: 1},
					{Received: true, ECN: 2, ArrivalOffset: atoUnit},
					{Received: true, ECN: 3, ArrivalOffset: 0x1FFF * atoUnit},
					{},
				}},
				{SSRC: 2, BeginSeq: 0x1234, Metrics: []CCFBMetric{
					{Received: true, ArrivalOffset: atoUnit},
					{Received: true, ArrivalOffset: 0x1FFE * atoUnit},
				}},
			}},
	},
	{
		// A lost packet whose ECN and ATO bits are set anyway, and a
		// non-zero pad block: both are ignored, and Marshal writes zeros.
		name:      "R=0 with stray bits, dirty padding",
		wire:      "8bcd0005 00000007 00000009 000a0001 7fff1234 00018000",
		parsed:    CCFB{SenderSSRC: 7, Timestamp: 1500 * time.Millisecond, Reports: []CCFBReport{{SSRC: 9, BeginSeq: 10, Metrics: []CCFBMetric{{}}}}},
		canonical: "8bcd0005 00000007 00000009 000a0001 00000000 00018000",
	},
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCCFBConformanceVectors checks Report+Marshal and Unmarshal byte for
// byte against the hand-assembled packets.
func TestCCFBConformanceVectors(t *testing.T) {
	for _, v := range ccfbVectors {
		t.Run(v.name, func(t *testing.T) {
			wire := mustHex(t, v.wire)
			if v.build != nil {
				got, err := v.build().Marshal()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, wire) {
					t.Errorf("Marshal wrote\n%x\nwant\n%x", got, wire)
				}
			}
			var parsed CCFB
			if err := parsed.Unmarshal(wire); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(parsed, v.parsed) {
				t.Errorf("Unmarshal read\n%+v\nwant\n%+v", parsed, v.parsed)
			}
			canonical := wire
			if v.canonical != "" {
				canonical = mustHex(t, v.canonical)
			}
			if again, err := parsed.Marshal(); err != nil || !bytes.Equal(again, canonical) {
				t.Errorf("re-marshalled to\n%x (%v)\nwant\n%x", again, err, canonical)
			}
		})
	}
}

// ccfbWithBlock assembles a feedback packet with one report block of n
// received metric blocks, n counted in num_reports whatever it is.
func ccfbWithBlock(n int) []byte {
	buf := []byte{0x80 | FmtCCFB, TypeTransportFeedback, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0xFF, 0xF0}
	buf = binary.BigEndian.AppendUint16(buf, uint16(n))
	for i := 0; i < n+n%2; i++ {
		buf = binary.BigEndian.AppendUint16(buf, 0x8000)
	}
	buf = append(buf, 0, 1, 0, 0) // report timestamp 1 s
	binary.BigEndian.PutUint16(buf[2:], uint16(len(buf)/4-1))
	return buf
}

// TestCCFBBlockBound holds both ends of the RFC 8888 codec to the bound of
// 16 384 metric blocks per report block: Unmarshal refuses a longer block
// (it would describe sequence numbers round the 16-bit space), and
// NewCCFBGenerator a window whose reports Marshal could not write. An empty
// block stays readable.
func TestCCFBBlockBound(t *testing.T) {
	for _, c := range []struct {
		n  int
		ok bool
	}{{0, true}, {1, true}, {1 << 14, true}, {1<<14 + 1, false}, {1<<16 - 1, false}} {
		var fb CCFB
		err := fb.Unmarshal(ccfbWithBlock(c.n))
		if (err == nil) != c.ok {
			t.Errorf("%d metric blocks: err = %v, want ok = %v", c.n, err, c.ok)
			continue
		}
		if c.ok && (len(fb.Reports) != 1 || len(fb.Reports[0].Metrics) != c.n) {
			t.Errorf("%d metric blocks parsed as %d reports", c.n, len(fb.Reports))
		}
	}

	g := NewCCFBGenerator(1, 2, 1<<14)
	g.Record(7, time.Second)
	if _, err := g.Report(time.Second).Marshal(); err != nil {
		t.Errorf("a report from the largest window: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewCCFBGenerator accepted a window of 16 385")
		}
	}()
	NewCCFBGenerator(1, 2, 1<<14+1)
}
