package rtp

import "testing"

func TestPLIRoundTrip(t *testing.T) {
	in := PLI{SenderSSRC: 1, MediaSSRC: 0x1234}
	buf, err := in.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out PLI
	if err := out.Unmarshal(buf); err != nil || out != in {
		t.Fatalf("round trip: %+v, %v; want %+v", out, err, in)
	}
	if err := out.Unmarshal(buf[:8]); err == nil {
		t.Error("truncated PLI accepted")
	}
	nack, _ := (&NACK{MediaSSRC: 0x1234, Pairs: []NackPair{{PID: 7}}}).AppendTo(nil)
	if err := out.Unmarshal(nack); err == nil {
		t.Error("a NACK parsed as a PLI")
	}
}

// TestPLIRespectsItsLength: a PLI whose header declares fewer than its 12
// bytes is refused even when the bytes arrived; one followed by junk past
// its declared end parses as the PLI alone.
func TestPLIRespectsItsLength(t *testing.T) {
	in := PLI{SenderSSRC: 1, MediaSSRC: 0x1234}
	buf, err := in.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out PLI
	for _, words := range []uint16{0, 1} {
		if err := out.Unmarshal(withLength(buf, words, FmtPLI)); err == nil {
			t.Errorf("a PLI declaring %d bytes accepted: %+v", 4*(words+1), out)
		}
	}
	if err := out.Unmarshal(append(buf, 0x80, 0xC8, 0, 6)); err != nil || out != in {
		t.Errorf("a PLI followed by junk: %+v, %v; want %+v", out, err, in)
	}
}

// TestPeekRTCP: every RTCP packet this package marshals must pass the peek
// with its own type and format (so their length fields are exact), and RTP,
// truncations and garbage must not.
func TestPeekRTCP(t *testing.T) {
	rec := NewTWCCRecorder(1, 2)
	rec.Record(10, 1000)
	rec.Record(12, 2000)
	twcc, _ := rec.Flush().Marshal()
	gen := NewCCFBGenerator(1, 2, 64)
	gen.Record(10, 1000)
	ccfb, _ := gen.Report(5000).Marshal()
	nack, _ := (&NACK{Pairs: []NackPair{{PID: 7, BLP: 3}}}).AppendTo(nil)
	pli, _ := (&PLI{}).AppendTo(nil)
	sr, _ := (&SenderReport{}).AppendTo(nil)
	rr, _ := (&ReceiverReport{Blocks: []ReportBlock{{}}}).AppendTo(nil)
	for name, c := range map[string]struct {
		buf        []byte
		pt, format uint8
	}{
		"twcc": {twcc, TypeTransportFeedback, FmtTWCC},
		"ccfb": {ccfb, TypeTransportFeedback, FmtCCFB},
		"nack": {nack, TypeTransportFeedback, FmtNACK},
		"pli":  {pli, TypePayloadFeedback, FmtPLI},
		"sr":   {sr, TypeSenderReport, 0},
		"rr":   {rr, TypeReceiverReport, 1},
	} {
		pt, format, ok := PeekRTCP(c.buf)
		if !ok || pt != c.pt || format != c.format {
			t.Errorf("%s: PeekRTCP = %d, %d, %v; want %d, %d, true", name, pt, format, ok, c.pt, c.format)
		}
		if _, _, ok := PeekRTCP(c.buf[:len(c.buf)-1]); ok {
			t.Errorf("%s: truncated packet passed the peek", name)
		}
	}
	media, _ := (&Packet{Header: Header{PayloadType: 96, Marker: true}, Payload: make([]byte, 40)}).Marshal()
	for name, buf := range map[string][]byte{"rtp": media, "empty": nil, "short": {0x80, 200}, "version 1": {0x40, 200, 0, 0}} {
		if _, _, ok := PeekRTCP(buf); ok {
			t.Errorf("%s passed the peek", name)
		}
	}
}
