package rtp

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Marker:         true,
		PayloadType:    96,
		SequenceNumber: 12345,
		Timestamp:      0xDEADBEEF,
		SSRC:           0xCAFEBABE,
		CSRC:           []uint32{1, 2, 3},
	}
	h.Extensions = tseqExt(777)
	buf, err := marshalHeader(&h)
	if err != nil {
		t.Fatal(err)
	}
	var g Header
	n, err := g.Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d bytes", n, len(buf))
	}
	if g.Marker != h.Marker || g.PayloadType != h.PayloadType ||
		g.SequenceNumber != h.SequenceNumber || g.Timestamp != h.Timestamp ||
		g.SSRC != h.SSRC || len(g.CSRC) != 3 {
		t.Errorf("round trip mismatch: %+v vs %+v", g, h)
	}
	seq, ok := g.TransportSeq()
	if !ok || seq != 777 {
		t.Errorf("TransportSeq = %d, %v", seq, ok)
	}
}

func TestHeaderNoExtensions(t *testing.T) {
	h := Header{PayloadType: 96, SequenceNumber: 1, SSRC: 9}
	buf, err := marshalHeader(&h)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != HeaderSize {
		t.Errorf("size = %d, want %d", len(buf), HeaderSize)
	}
	var g Header
	if _, err := g.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.TransportSeq(); ok {
		t.Error("found transport seq on header without one")
	}
}

// tseqExt is the transport-wide sequence number extension carrying seq.
func tseqExt(seq uint16) []Extension {
	return []Extension{{ID: ExtensionIDTransportSeq, Payload: binary.BigEndian.AppendUint16(nil, seq)}}
}

func TestHeaderBadVersion(t *testing.T) {
	buf := make([]byte, HeaderSize)
	buf[0] = 1 << 6
	var h Header
	if _, err := h.Unmarshal(buf); err != ErrBadVersion {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestHeaderShort(t *testing.T) {
	var h Header
	if _, err := h.Unmarshal(make([]byte, 5)); err != ErrShortPacket {
		t.Errorf("err = %v, want ErrShortPacket", err)
	}
}

func TestHeaderTruncatedExtension(t *testing.T) {
	h := Header{PayloadType: 96}
	h.Extensions = tseqExt(1)
	buf, err := marshalHeader(&h)
	if err != nil {
		t.Fatal(err)
	}
	var g Header
	if _, err := g.Unmarshal(buf[:len(buf)-1]); err != ErrShortPacket {
		t.Errorf("err = %v, want ErrShortPacket", err)
	}
}

func TestExtensionValidation(t *testing.T) {
	h := Header{Extensions: []Extension{{ID: 15, Payload: []byte{1}}}}
	if _, err := marshalHeader(&h); err == nil {
		t.Error("extension id 15 should be rejected")
	}
	h = Header{Extensions: []Extension{{ID: 1, Payload: nil}}}
	if _, err := marshalHeader(&h); err == nil {
		t.Error("empty extension payload should be rejected")
	}
	h = Header{Extensions: []Extension{{ID: 1, Payload: make([]byte, 17)}}}
	if _, err := marshalHeader(&h); err == nil {
		t.Error("17-byte extension payload should be rejected")
	}
}

func TestTooManyCSRCs(t *testing.T) {
	h := Header{CSRC: make([]uint32, 16)}
	if _, err := marshalHeader(&h); err == nil {
		t.Error("16 CSRCs should be rejected")
	}
}

func TestPacketRoundTripWithPadding(t *testing.T) {
	p := Packet{
		Header:  Header{PayloadType: 96, SequenceNumber: 7, SSRC: 1},
		Payload: []byte{1, 2, 3, 4},
		PadLen:  5,
	}
	buf, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != p.MarshalSize() {
		t.Errorf("wire size %d != MarshalSize %d", len(buf), p.MarshalSize())
	}
	var g Packet
	if err := g.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Payload, p.Payload) {
		t.Errorf("payload = %v, want %v", g.Payload, p.Payload)
	}
	if g.PadLen != 5 {
		t.Errorf("PadLen = %d, want 5", g.PadLen)
	}
}

func TestPacketVirtualPayload(t *testing.T) {
	p := Packet{
		Header:            Header{PayloadType: 96, SSRC: 1},
		Payload:           []byte{9, 9},
		VirtualPayloadLen: 1000,
	}
	if p.MarshalSize() != HeaderSize+2+1000 {
		t.Errorf("MarshalSize = %d", p.MarshalSize())
	}
	buf, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != p.MarshalSize() {
		t.Errorf("wire length %d != %d", len(buf), p.MarshalSize())
	}
	var g Packet
	if err := g.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	// Virtual bytes materialize as real payload on the other side.
	if len(g.Payload) != 1002 {
		t.Errorf("payload length = %d, want 1002", len(g.Payload))
	}
}

func TestPacketPadTooLarge(t *testing.T) {
	p := Packet{PadLen: 256}
	if _, err := p.Marshal(); err == nil {
		t.Error("PadLen 256 should be rejected")
	}
}

func TestPacketInvalidPadCount(t *testing.T) {
	h := Header{Padding: true, PayloadType: 96}
	buf, err := marshalHeader(&h)
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, 0) // pad count 0 is invalid
	var p Packet
	if err := p.Unmarshal(buf); err == nil {
		t.Error("pad count 0 should be rejected")
	}
}

// Property: header marshal/unmarshal round-trips for arbitrary field values.
func TestPropertyHeaderRoundTrip(t *testing.T) {
	f := func(marker bool, pt uint8, seq uint16, ts, ssrc uint32, tseq uint16) bool {
		h := Header{
			Marker:         marker,
			PayloadType:    pt & 0x7F,
			SequenceNumber: seq,
			Timestamp:      ts,
			SSRC:           ssrc,
		}
		h.Extensions = tseqExt(tseq)
		buf, err := marshalHeader(&h)
		if err != nil {
			return false
		}
		var g Header
		if _, err := g.Unmarshal(buf); err != nil {
			return false
		}
		got, ok := g.TransportSeq()
		return ok && got == tseq &&
			g.Marker == h.Marker && g.PayloadType == h.PayloadType &&
			g.SequenceNumber == seq && g.Timestamp == ts && g.SSRC == ssrc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: unmarshalling arbitrary bytes never panics.
func TestPropertyUnmarshalNoPanic(t *testing.T) {
	f := func(data []byte) bool {
		var h Header
		_, _ = h.Unmarshal(data)
		var p Packet
		_ = p.Unmarshal(data)
		var tw TWCC
		_ = tw.Unmarshal(data)
		var cc CCFB
		_ = cc.Unmarshal(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPacketizeSingleSmallFrame(t *testing.T) {
	p := NewPacketizer(1, 96, 1200)
	pkts := p.Packetize(FrameInfo{Num: 1, EncodeTime: time.Second, Keyframe: true, Size: 100, RTPTime: 90000})
	if len(pkts) != 1 {
		t.Fatalf("got %d packets, want 1", len(pkts))
	}
	if !pkts[0].Header.Marker {
		t.Error("single packet should carry the marker")
	}
	meta, err := ParsePacketMeta(pkts[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if meta.FrameNum != 1 || !meta.Keyframe || meta.EncodeTime != time.Second || meta.Total != 1 {
		t.Errorf("meta = %+v", meta)
	}
}

func TestPacketizeLargeFrame(t *testing.T) {
	p := NewPacketizer(1, 96, 1200)
	const frameSize = 100_000
	pkts := p.Packetize(FrameInfo{Num: 7, Size: frameSize})
	if len(pkts) < 80 {
		t.Fatalf("got %d packets for a 100 KB frame at MTU 1200", len(pkts))
	}
	totalWire := 0
	for i, pkt := range pkts {
		if pkt.MarshalSize() > 1200 {
			t.Errorf("packet %d exceeds MTU: %d", i, pkt.MarshalSize())
		}
		if got := pkt.Header.Marker; got != (i == len(pkts)-1) {
			t.Errorf("packet %d marker = %v", i, got)
		}
		if _, ok := pkt.Header.TransportSeq(); !ok {
			t.Errorf("packet %d missing transport seq", i)
		}
		meta, err := ParsePacketMeta(pkt.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if int(meta.Index) != i || int(meta.Total) != len(pkts) {
			t.Errorf("packet %d meta index/total = %d/%d", i, meta.Index, meta.Total)
		}
		totalWire += len(pkt.Payload) + pkt.VirtualPayloadLen
	}
	if totalWire != frameSize {
		t.Errorf("sum of payloads = %d, want %d", totalWire, frameSize)
	}
}

func TestPacketizerSequencesIncrease(t *testing.T) {
	p := NewPacketizer(1, 96, 1200)
	a := slices.Clone(p.Packetize(FrameInfo{Num: 1, Size: 5000}))
	b := p.Packetize(FrameInfo{Num: 2, Size: 5000})
	lastSeq := a[len(a)-1].Header.SequenceNumber
	if b[0].Header.SequenceNumber != lastSeq+1 {
		t.Errorf("sequence not continuous across frames: %d then %d", lastSeq, b[0].Header.SequenceNumber)
	}
	at, _ := a[len(a)-1].Header.TransportSeq()
	bt, _ := b[0].Header.TransportSeq()
	if bt != at+1 {
		t.Errorf("transport seq not continuous: %d then %d", at, bt)
	}
}

// TestPacketizerSeqsAdvanceTogether pins the lockstep video.Sender's one
// sent table relies on: every packet's transport sequence number equals its
// RTP sequence number (both start at 0 and step together), across frames of
// any size and through the 16-bit wrap.
func TestPacketizerSeqsAdvanceTogether(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	p := NewPacketizer(1, 96, 1200)
	want, sent := uint16(0), 0
	for num := uint32(0); sent < 3<<16; num++ {
		for _, pkt := range p.Packetize(FrameInfo{Num: num, Size: rng.Intn(60_000)}) {
			tseq, ok := pkt.Header.TransportSeq()
			if !ok || pkt.Header.SequenceNumber != want || tseq != want {
				t.Fatalf("packet %d: seq %d, transport seq %d (%v), want both %d", sent, pkt.Header.SequenceNumber, tseq, ok, want)
			}
			want++
			sent++
		}
		if p.tseq != want {
			t.Fatalf("after frame %d the next transport sequence is %d, want %d", num, p.tseq, want)
		}
	}
}

// Property: packetizer conserves frame size and stays under MTU for any size.
func TestPropertyPacketizeConservation(t *testing.T) {
	f := func(size uint32) bool {
		sz := int(size % 2_000_000)
		p := NewPacketizer(1, 96, 1200)
		pkts := p.Packetize(FrameInfo{Num: 1, Size: sz})
		sum := 0
		for _, pkt := range pkts {
			if pkt.MarshalSize() > 1200 {
				return false
			}
			sum += len(pkt.Payload) + pkt.VirtualPayloadLen
		}
		want := sz
		if want < payloadMetaSize {
			want = payloadMetaSize
		}
		return sum >= want && sum <= want+len(pkts)*payloadMetaSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDepacketizerReassembly(t *testing.T) {
	p := NewPacketizer(1, 96, 1200)
	pkts := p.Packetize(FrameInfo{Num: 3, EncodeTime: 5 * time.Second, Size: 4000})
	d := NewDepacketizer()
	var fs *FrameState
	for i, pkt := range pkts {
		var err error
		fs, err = d.Push(pkt, time.Duration(i)*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !fs.Complete() {
		t.Error("frame should be complete")
	}
	if fs.EncodeTime != 5*time.Second || fs.Num != 3 {
		t.Errorf("frame meta = %+v", fs)
	}
	if fs.FirstArrival != 0 || fs.LastArrival != time.Duration(len(pkts)-1)*time.Millisecond {
		t.Errorf("arrival bracket = %v..%v", fs.FirstArrival, fs.LastArrival)
	}
	if fs.LossFraction() != 0 {
		t.Errorf("LossFraction = %v", fs.LossFraction())
	}
	d.Delete(3)
	if d.live+len(d.spill) != 0 {
		t.Errorf("Pending = %d after Delete", d.live+len(d.spill))
	}
}

func TestDepacketizerPartialFrame(t *testing.T) {
	p := NewPacketizer(1, 96, 1200)
	pkts := p.Packetize(FrameInfo{Num: 9, Size: 4000})
	d := NewDepacketizer()
	// Drop the middle packet.
	for i, pkt := range pkts {
		if i == 1 {
			continue
		}
		if _, err := d.Push(pkt, 0); err != nil {
			t.Fatal(err)
		}
	}
	fs := d.Frame(9)
	if fs == nil || fs.Complete() {
		t.Fatal("frame with a missing packet must not be complete")
	}
	want := 1.0 / float64(len(pkts))
	if got := fs.LossFraction(); got != want {
		t.Errorf("LossFraction = %v, want %v", got, want)
	}
}

func TestDepacketizerRejectsNonMedia(t *testing.T) {
	d := NewDepacketizer()
	pkt := &Packet{Payload: []byte{1, 2, 3}}
	if _, err := d.Push(pkt, 0); err != ErrNotMedia {
		t.Errorf("err = %v, want ErrNotMedia", err)
	}
}

// fourMakesPacketize is the arena layout Packetize had before the slots: a
// backing array each for the packets, the pointers, the extension
// descriptors and the payload bytes, per frame. It takes the sequence
// numbers as arguments and returns what the packetizer would have produced.
func fourMakesPacketize(p *Packetizer, seq, tseq uint16, f FrameInfo) []*Packet {
	maxPayload := p.MTU - (HeaderSize + 8)
	size := max(f.Size, payloadMetaSize)
	total := min((size+maxPayload-1)/maxPayload, 0xFFFF)
	pkts := make([]*Packet, total)
	backing := make([]Packet, total)
	exts := make([]Extension, total)
	const perPkt = payloadMetaSize + 2
	buf := make([]byte, total*perPkt)
	remaining := size
	for i := 0; i < total; i++ {
		chunk := remaining / (total - i)
		if i == total-1 {
			chunk = remaining
		}
		remaining -= chunk
		chunk = max(chunk, payloadMetaSize)
		meta := buf[i*perPkt : i*perPkt+payloadMetaSize : i*perPkt+payloadMetaSize]
		binary.BigEndian.PutUint32(meta[0:], f.Num)
		binary.BigEndian.PutUint16(meta[4:], uint16(i))
		binary.BigEndian.PutUint16(meta[6:], uint16(total))
		if f.Keyframe {
			meta[8] = flagKeyframe
		}
		binary.BigEndian.PutUint64(meta[12:], uint64(f.EncodeTime))
		tseqPayload := buf[i*perPkt+payloadMetaSize : (i+1)*perPkt : (i+1)*perPkt]
		binary.BigEndian.PutUint16(tseqPayload, tseq)
		exts[i] = Extension{ID: ExtensionIDTransportSeq, Payload: tseqPayload}
		backing[i] = Packet{
			Header: Header{
				Marker: i == total-1, PayloadType: p.PayloadType, SequenceNumber: seq,
				Timestamp: f.RTPTime, SSRC: p.SSRC, Extensions: exts[i : i+1 : i+1],
			},
			Payload:           meta,
			VirtualPayloadLen: chunk - payloadMetaSize,
		}
		seq++
		tseq++
		pkts[i] = &backing[i]
	}
	return pkts
}

// TestPacketizeMatchesFourMakesOracle packetizes 400 frames of mixed sizes —
// many pool blocks' worth, all kept alive — and compares every packet,
// marshalled, with the per-frame arenas' packet. Comparing at the end shows
// that no later frame wrote into an earlier one's bytes. (FuzzPacketPool
// covers packets that are released and their slots reused.)
func TestPacketizeMatchesFourMakesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewPacketizer(7, 96, 1200)
	var got, want [][]*Packet
	var seq, tseq uint16
	for n := 0; n < 400; n++ {
		f := FrameInfo{Num: uint32(n), EncodeTime: time.Duration(n) * 33 * time.Millisecond, Keyframe: n%30 == 0,
			Size: rng.Intn(150_000), RTPTime: uint32(n) * 3000}
		if n%50 == 0 {
			f.Size = 3_000_000 // larger than a payload block
		}
		got = append(got, slices.Clone(p.Packetize(f)))
		want = append(want, fourMakesPacketize(p, seq, tseq, f))
		seq += uint16(len(got[n]))
		tseq += uint16(len(got[n]))
	}
	for n := range got {
		if len(got[n]) != len(want[n]) {
			t.Fatalf("frame %d: %d packets, oracle %d", n, len(got[n]), len(want[n]))
		}
		for i := range got[n] {
			g, w := got[n][i], want[n][i]
			gb, err := g.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			wb, err := w.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb, wb) || g.VirtualPayloadLen != w.VirtualPayloadLen || g.MarshalSize() != w.MarshalSize() {
				t.Fatalf("frame %d packet %d differs from the oracle's", n, i)
			}
			if cap(g.Header.Extensions) != 1 || cap(g.Payload) != payloadMetaSize || cap(g.Header.Extensions[0].Payload) != 2 {
				t.Fatalf("frame %d packet %d: a slice is not capacity-clamped (%d, %d, %d)", n, i,
					cap(g.Header.Extensions), cap(g.Payload), cap(g.Header.Extensions[0].Payload))
			}
		}
	}
}

// TestPacketizeAllocations: once its pool has warmed up, a packetizer whose
// packets are released makes frames without allocating.
func TestPacketizeAllocations(t *testing.T) {
	if poisonReleased {
		t.Skip("rtppoison never reuses a released packet")
	}
	p := NewPacketizer(1, 96, 1200)
	n := uint32(0)
	frame := func() {
		for _, pkt := range p.Packetize(FrameInfo{Num: n, Size: 104_000}) { // a frame at 25 Mbps
			pkt.Release()
		}
		n++
	}
	frame()
	const frames = 800
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < frames; i++ {
			frame()
		}
	})
	if allocs != 0 {
		t.Errorf("Packetize allocates %.3f times per frame once warm, want 0", allocs/frames)
	}
	if st := p.PoolStats(); st.Live != 0 || st.Slots > st.PeakLive+PoolBlock {
		t.Errorf("pool %+v: want no live packet and at most the peak plus one block of slots", st)
	}
}

// marshalHeader serializes h into a new buffer.
func marshalHeader(h *Header) ([]byte, error) {
	buf := make([]byte, h.MarshalSize())
	if _, err := h.MarshalTo(buf); err != nil {
		return nil, err
	}
	return buf, nil
}
