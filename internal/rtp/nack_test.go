package rtp

import (
	"reflect"
	"testing"
)

func TestNackPairsPackAndExpand(t *testing.T) {
	cases := [][]uint16{
		{5},
		{5, 6, 7},
		{5, 21}, // exactly at the BLP edge: one pair
		{5, 22}, // one past the edge: two pairs
		{100, 101, 120, 200},
		{65534, 65535, 0, 1}, // wraparound run
	}
	for _, seqs := range cases {
		pairs := AppendNackPairs(nil, seqs)
		var got []uint16
		for _, p := range pairs {
			got = p.AppendSeqs(got)
		}
		if !reflect.DeepEqual(got, seqs) {
			t.Errorf("AppendNackPairs(%v) expanded to %v", seqs, got)
		}
	}
	if pairs := AppendNackPairs(nil, []uint16{5, 21}); len(pairs) != 1 {
		t.Errorf("seqs 16 apart should pack into one pair, got %d", len(pairs))
	}
	if pairs := AppendNackPairs(nil, []uint16{5, 22}); len(pairs) != 2 {
		t.Errorf("seqs 17 apart need two pairs, got %d", len(pairs))
	}
}

func TestNACKRoundTrip(t *testing.T) {
	n := &NACK{
		SenderSSRC: 0x11223344,
		MediaSSRC:  0x1234,
		Pairs:      AppendNackPairs(nil, []uint16{10, 11, 13, 40}),
	}
	buf, err := n.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != n.MarshalSize() {
		t.Fatalf("marshal produced %d bytes, MarshalSize says %d", len(buf), n.MarshalSize())
	}
	var got NACK
	if err := got.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if got.SenderSSRC != n.SenderSSRC || got.MediaSSRC != n.MediaSSRC {
		t.Fatalf("SSRCs changed: %+v vs %+v", got, n)
	}
	if seqs := got.AppendSeqs(nil); !reflect.DeepEqual(seqs, []uint16{10, 11, 13, 40}) {
		t.Fatalf("seqs after roundtrip: %v", seqs)
	}
}

func TestNACKRejectsOtherFeedback(t *testing.T) {
	tw := &TWCC{SenderSSRC: 1, MediaSSRC: 2, BaseSeq: 1,
		Packets: []Arrival{{Received: true}}}
	buf, err := tw.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var n NACK
	if err := n.Unmarshal(buf); err == nil {
		t.Fatal("NACK parser accepted a TWCC packet")
	}
	if err := n.Unmarshal([]byte{0x81, 205, 0}); err == nil {
		t.Fatal("NACK parser accepted a truncated header")
	}
}

func TestRTXWrapUnwrapRoundTrip(t *testing.T) {
	pk := NewPacketizer(0x1234, 96, 1200)
	frame := pk.Packetize(FrameInfo{Num: 7, Keyframe: true, Size: 3000, RTPTime: 21000})
	orig := frame[1]
	rtx := pk.WrapRTX(orig, 0x5243, 97, 400)
	if rtx.Header.SSRC != 0x5243 || rtx.Header.PayloadType != 97 || rtx.Header.SequenceNumber != 400 {
		t.Fatalf("rtx stream identity wrong: %+v", rtx.Header)
	}
	if got, want := rtx.MarshalSize(), orig.MarshalSize()+RTXOverhead-orig.Header.extensionWireLen(); got != want || RTXSize(orig) != want {
		t.Fatalf("rtx wire size %d, RTXSize %d, want %d", got, RTXSize(orig), want)
	}
	back, osn, err := UnwrapRTX(rtx, 0x1234, 96)
	if err != nil {
		t.Fatal(err)
	}
	if osn != orig.Header.SequenceNumber {
		t.Fatalf("osn %d, want %d", osn, orig.Header.SequenceNumber)
	}
	if back.Header.SequenceNumber != orig.Header.SequenceNumber ||
		back.Header.Timestamp != orig.Header.Timestamp ||
		back.Header.SSRC != 0x1234 || back.Header.PayloadType != 96 {
		t.Fatalf("unwrapped header %+v vs original %+v", back.Header, orig.Header)
	}
	if !reflect.DeepEqual(back.Payload, orig.Payload) || back.VirtualPayloadLen != orig.VirtualPayloadLen {
		t.Fatal("unwrapped payload differs from original")
	}
	meta, err := ParsePacketMeta(back.Payload)
	if err != nil || meta.FrameNum != 7 || !meta.Keyframe {
		t.Fatalf("unwrapped payload meta %+v err %v", meta, err)
	}
	// The retransmission holds a slot of its own until released.
	if st := pk.PoolStats(); st.Live != len(frame)+1 {
		t.Fatalf("pool %+v: want the frame's %d packets and the RTX live", st, len(frame))
	}
	rtx.Release()
	if st := pk.PoolStats(); st.Live != len(frame) {
		t.Fatalf("pool %+v after the RTX's one Release", st)
	}
}

// TestPooledRTXRoundTripAllocations pins a retransmission built in a
// recycled slot, unwrapped and released, at zero allocations once the pool
// is warm; a payload too long for the slot still wraps, on the heap.
func TestPooledRTXRoundTripAllocations(t *testing.T) {
	pk := NewPacketizer(0x1234, 96, 1200)
	orig := pk.Packetize(FrameInfo{Num: 7, Size: 1000})[0]
	var osn uint16
	roundTrip := func() {
		rtx := pk.WrapRTX(orig, 0x5243, 97, 400)
		back, n, err := UnwrapRTX(rtx, 0x1234, 96)
		if err != nil || len(back.Payload) != len(orig.Payload) {
			t.Fatalf("unwrap: %v", err)
		}
		osn = n
		rtx.Release()
	}
	// One unmeasured call, then every allocation of 1 000 round trips.
	n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			roundTrip()
		}
	})
	if n != 0 && !poisonReleased {
		t.Errorf("1 000 pooled RTX round trips allocate %.0f times, want 0", n)
	}
	if osn != orig.Header.SequenceNumber {
		t.Fatalf("osn %d, want %d", osn, orig.Header.SequenceNumber)
	}
	long := &Packet{Header: Header{SequenceNumber: 9}, Payload: make([]byte, 100)}
	long.Payload[99] = 7
	rtx := pk.WrapRTX(long, 0x5243, 97, 401)
	if back, osn, err := UnwrapRTX(rtx, 0x1234, 96); err != nil || osn != 9 || !reflect.DeepEqual(back.Payload, long.Payload) {
		t.Fatalf("long payload: osn %d, err %v, payload equal %v", osn, err, reflect.DeepEqual(back.Payload, long.Payload))
	}
	rtx.Release()
}

func TestRTXUnwrapShortPayload(t *testing.T) {
	if _, _, err := UnwrapRTX(&Packet{Payload: []byte{1}}, 1, 96); err == nil {
		t.Fatal("UnwrapRTX accepted a 1-byte payload")
	}
}

func TestDepacketizerDeduplicates(t *testing.T) {
	pk := NewPacketizer(1, 96, 1200)
	pkts := pk.Packetize(FrameInfo{Num: 1, Size: 3000})
	d := NewDepacketizer()
	for _, p := range pkts {
		if _, err := d.Push(p, 10); err != nil {
			t.Fatal(err)
		}
	}
	fs := d.Frame(1)
	if !fs.Complete() {
		t.Fatalf("frame incomplete after all %d packets", len(pkts))
	}
	before := exported(fs)
	if _, err := d.Push(pkts[0], 20); err != ErrDuplicate {
		t.Fatalf("duplicate push returned %v, want ErrDuplicate", err)
	}
	if exported(fs) != before {
		t.Fatal("duplicate push mutated frame state")
	}
}
