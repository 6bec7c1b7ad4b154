package rtp

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// Transport-wide congestion control vectors, assembled by hand from the
// field layout of draft-holmer-rmcat-transport-wide-cc-extensions-01 §3.1
// (one 32-bit word per group):
//
//	V=2 P=0 FMT=15 | PT=205 | length (words − 1)
//	SSRC of packet sender
//	SSRC of media source
//	base sequence number | packet status count
//	reference time (24 bits, 64 ms units) | feedback packet count
//	packet status chunks (16 bits each)
//	receive deltas (8 bits for a small delta, 16 for a large one), then
//	zero padding to a word
//
// A chunk is a run length (0 | symbol(2) | run(13)), a one-bit status vector
// (1 | 0 | 14 × received) or a two-bit one (1 | 1 | 7 × symbol(2)); symbol
// 0 is not received, 1 a received packet with a small delta (0..255 ticks of
// 250 µs), 2 one with a large, signed 16-bit delta. The first delta counts
// from the reference time, each next one from the previous arrival.
var twccVectors = []struct {
	name string
	// wire is the packet, in hex; words are separated by spaces.
	wire string
	// build returns what AppendTo must turn into wire; nil for a packet
	// only a foreign sender writes.
	build func() *TWCC
	// parsed is what Unmarshal must make of wire.
	parsed TWCC
	// canonical is what AppendTo writes for parsed, when not wire itself.
	canonical string
}{
	{
		// Eight packets 1 ms apart, the first 40 ms past the 64 ms grid:
		// one run-length chunk of eight small deltas, 160 ticks then 4.
		name: "run-length chunk",
		wire: "8fcd0007 00000001 00000002 00640008 00000f00 2008a004 04040404 04040000",
		build: func() *TWCC {
			r := NewTWCCRecorder(1, 2)
			for i := 0; i < 8; i++ {
				r.Record(100+uint16(i), time.Second+time.Duration(i)*time.Millisecond)
			}
			return r.Flush()
		},
		parsed: TWCC{SenderSSRC: 1, MediaSSRC: 2, BaseSeq: 100, Packets: arrivalsAt(
			1000*time.Millisecond, 1001*time.Millisecond, 1002*time.Millisecond, 1003*time.Millisecond,
			1004*time.Millisecond, 1005*time.Millisecond, 1006*time.Millisecond, 1007*time.Millisecond)},
	},
	{
		// Five packets across the 16-bit wrap: small, lost, large (+100 ms),
		// large and negative (−5 ms: reordered), small. One two-bit vector
		// chunk, whose last two symbols lie past the status count.
		name: "two-bit vector, large and negative deltas, count ends mid-chunk",
		wire: "8fcd0006 00000001 00000002 fffe0005 00000a02 d2900a01 90ffec03",
		build: func() *TWCC {
			return &TWCC{SenderSSRC: 1, MediaSSRC: 2, BaseSeq: 65534, FbPktCount: 2, Packets: []Arrival{
				{Received: true, At: 642500 * time.Microsecond},
				{},
				{Received: true, At: 742500 * time.Microsecond},
				{Received: true, At: 737500 * time.Microsecond},
				{Received: true, At: 738250 * time.Microsecond},
			}}
		},
		parsed: TWCC{SenderSSRC: 1, MediaSSRC: 2, BaseSeq: 65534, FbPktCount: 2, Packets: []Arrival{
			{Received: true, At: 642500 * time.Microsecond},
			{},
			{Received: true, At: 742500 * time.Microsecond},
			{Received: true, At: 737500 * time.Microsecond},
			{Received: true, At: 738250 * time.Microsecond},
		}},
	},
	{
		// The delta bounds: 255 ticks (the largest small delta), 256 (the
		// smallest large one), −1 and 32 767 (the largest large one).
		name: "delta bounds",
		wire: "8fcd0007 00000001 00000002 ffff0004 000000ff da80ff01 00ffff7f ff000000",
		build: func() *TWCC {
			return &TWCC{SenderSSRC: 1, MediaSSRC: 2, BaseSeq: 65535, FbPktCount: 255, Packets: arrivalsAt(
				255*deltaUnit, 511*deltaUnit, 510*deltaUnit, 33277*deltaUnit)}
		},
		parsed: TWCC{SenderSSRC: 1, MediaSSRC: 2, BaseSeq: 65535, FbPktCount: 255, Packets: arrivalsAt(
			255*deltaUnit, 511*deltaUnit, 510*deltaUnit, 33277*deltaUnit)},
	},
	{
		// The last reference time the 24-bit field holds, 2²⁴−1 units of
		// 64 ms, and one packet a millisecond past it.
		name: "reference time 2^24-1",
		wire: "8fcd0005 00000001 00000002 00070001 ffffff07 20010400",
		build: func() *TWCC {
			return &TWCC{SenderSSRC: 1, MediaSSRC: 2, BaseSeq: 7, FbPktCount: 7,
				Packets: arrivalsAt((1<<24-1)*refTimeUnit + time.Millisecond)}
		},
		parsed: TWCC{SenderSSRC: 1, MediaSSRC: 2, BaseSeq: 7, FbPktCount: 7,
			Packets: arrivalsAt((1<<24-1)*refTimeUnit + time.Millisecond)},
	},
	{
		// A one-bit status vector, which this encoder never writes: ten
		// symbols 1101001111 and four unused bits. Re-encoded as a two-bit
		// vector and a run.
		name: "one-bit vector",
		wire: "8fcd0007 00000001 00000002 1000000a 00000100 b4f00004 04040404 04000000",
		parsed: TWCC{SenderSSRC: 1, MediaSSRC: 2, BaseSeq: 0x1000, Packets: []Arrival{
			{Received: true, At: 64 * time.Millisecond},
			{Received: true, At: 65 * time.Millisecond},
			{},
			{Received: true, At: 66 * time.Millisecond},
			{},
			{},
			{Received: true, At: 67 * time.Millisecond},
			{Received: true, At: 68 * time.Millisecond},
			{Received: true, At: 69 * time.Millisecond},
			{Received: true, At: 70 * time.Millisecond},
		}},
		canonical: "8fcd0007 00000001 00000002 1000000a 00000100 d4412003 00040404 04040400",
	},
	{
		// A status count of nine ending in a second chunk whose five
		// trailing symbols (all "small delta") lie past it: they are not
		// packets and own no delta. The ninth packet's delta, 4 ticks, is
		// written large; re-encoded, it is small and all nine are one run.
		name: "status count ends mid-chunk, symbols past it",
		wire: "8fcd0008 00000001 00000002 01f40009 00000203 2007d955 01010101 01010101 00040000",
		parsed: TWCC{SenderSSRC: 1, MediaSSRC: 2, BaseSeq: 500, FbPktCount: 3, Packets: arrivalsAt(
			128250*time.Microsecond, 128500*time.Microsecond, 128750*time.Microsecond, 129*time.Millisecond,
			129250*time.Microsecond, 129500*time.Microsecond, 129750*time.Microsecond, 130*time.Millisecond,
			131*time.Millisecond)},
		canonical: "8fcd0007 00000001 00000002 01f40009 00000203 20090101 01010101 01010400",
	},
}

// arrivalsAt is one received Arrival per time.
func arrivalsAt(ats ...time.Duration) []Arrival {
	out := make([]Arrival, len(ats))
	for i, at := range ats {
		out[i] = Arrival{Received: true, At: at}
	}
	return out
}

// TestTWCCConformanceVectors checks AppendTo and Unmarshal byte for byte
// against the hand-assembled packets, and AppendTo of every parse against
// the packet or its canonical form.
func TestTWCCConformanceVectors(t *testing.T) {
	for _, v := range twccVectors {
		t.Run(v.name, func(t *testing.T) {
			wire := mustHex(t, v.wire)
			if v.build != nil {
				got, err := v.build().AppendTo(nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, wire) {
					t.Errorf("AppendTo:\n got % x\nwant % x", got, wire)
				}
			}
			var fb TWCC
			if err := fb.Unmarshal(wire); err != nil {
				t.Fatal(err)
			}
			got := TWCC{SenderSSRC: fb.SenderSSRC, MediaSSRC: fb.MediaSSRC, BaseSeq: fb.BaseSeq,
				FbPktCount: fb.FbPktCount, Packets: fb.Packets}
			if !reflect.DeepEqual(got, v.parsed) {
				t.Errorf("Unmarshal:\n got %+v\nwant %+v", got, v.parsed)
			}
			want := wire
			if v.canonical != "" {
				want = mustHex(t, v.canonical)
			}
			back, err := fb.AppendTo(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, want) {
				t.Errorf("AppendTo of the parse:\n got % x\nwant % x", back, want)
			}
		})
	}
}
