package rtp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// atoUnit is the resolution of the RFC 8888 arrival time offset (1/1024 s).
const atoUnit = time.Second / 1024

// atoMax is the saturating maximum of the 13-bit arrival time offset field.
const atoMax = 0x1FFF

// CCFBMetric is one per-packet metric block of an RFC 8888 report.
type CCFBMetric struct {
	Received bool
	ECN      uint8 // 2 bits
	// ArrivalOffset is how long before the report timestamp the packet
	// arrived. It saturates at ~8 s on the wire.
	ArrivalOffset time.Duration
}

// CCFBReport carries the metric blocks for one RTP stream, covering the
// consecutive sequence numbers [BeginSeq, BeginSeq+len(Metrics)-1].
type CCFBReport struct {
	SSRC     uint32
	BeginSeq uint16
	Metrics  []CCFBMetric
}

// CCFB is an RFC 8888 congestion control feedback packet.
type CCFB struct {
	SenderSSRC uint32
	Reports    []CCFBReport
	// Timestamp is the report generation time relative to the receiver's
	// epoch; it wraps every 65536 s on the wire.
	Timestamp time.Duration
}

// Marshal serializes the feedback packet.
func (f *CCFB) Marshal() ([]byte, error) {
	size := rtcpHeaderSize + 4 // header + sender ssrc
	for _, r := range f.Reports {
		if len(r.Metrics) == 0 {
			return nil, errors.New("rtp: ccfb report with no metric blocks")
		}
		if len(r.Metrics) > 16384 {
			return nil, fmt.Errorf("rtp: ccfb report with %d metric blocks exceeds maximum", len(r.Metrics))
		}
		n := len(r.Metrics)
		if n%2 == 1 {
			n++ // pad to 32-bit boundary
		}
		size += 8 + 2*n
	}
	size += 4 // report timestamp
	buf := make([]byte, size)
	hdr := rtcpHeader{Fmt: FmtCCFB, Type: TypeTransportFeedback, Length: wordLength(size)}
	if err := hdr.marshalTo(buf); err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(buf[4:], f.SenderSSRC)
	off := 8
	for _, r := range f.Reports {
		binary.BigEndian.PutUint32(buf[off:], r.SSRC)
		binary.BigEndian.PutUint16(buf[off+4:], r.BeginSeq)
		binary.BigEndian.PutUint16(buf[off+6:], uint16(len(r.Metrics)))
		off += 8
		for _, m := range r.Metrics {
			var w uint16
			if m.Received {
				w |= 1 << 15
				w |= uint16(m.ECN&0x3) << 13
				ato := m.ArrivalOffset / atoUnit
				if ato < 0 {
					ato = 0
				}
				if ato > atoMax {
					ato = atoMax
				}
				w |= uint16(ato)
			}
			binary.BigEndian.PutUint16(buf[off:], w)
			off += 2
		}
		if len(r.Metrics)%2 == 1 {
			off += 2 // zero padding block
		}
	}
	binary.BigEndian.PutUint32(buf[off:], ntp32(f.Timestamp))
	return buf, nil
}

// Unmarshal parses an RFC 8888 feedback packet. It reuses the Reports and
// Metrics backing arrays of f, so a CCFB that is unmarshalled into
// repeatedly stops allocating once it has seen its largest packet.
func (f *CCFB) Unmarshal(buf []byte) error {
	var hdr rtcpHeader
	if err := hdr.unmarshal(buf); err != nil {
		return err
	}
	if hdr.Type != TypeTransportFeedback || hdr.Fmt != FmtCCFB {
		return fmt.Errorf("rtp: not a ccfb packet (pt=%d fmt=%d)", hdr.Type, hdr.Fmt)
	}
	want := (int(hdr.Length) + 1) * 4
	if len(buf) < want || want < rtcpHeaderSize+8 {
		return ErrShortPacket
	}
	buf = buf[:want]
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
		if k := len(f.Reports); k < cap(f.Reports) {
			r.Metrics = f.Reports[:k+1][k].Metrics[:0] // the slot's previous backing
		}
		n := int(binary.BigEndian.Uint16(body[off+6:]))
		off += 8
		padded := n
		if padded%2 == 1 {
			padded++
		}
		if off+2*padded > len(body) {
			return ErrShortPacket
		}
		for i := 0; i < n; i++ {
			w := binary.BigEndian.Uint16(body[off+2*i:])
			m := CCFBMetric{}
			if w>>15 == 1 {
				m.Received = true
				m.ECN = uint8(w >> 13 & 0x3)
				m.ArrivalOffset = time.Duration(w&atoMax) * atoUnit
			}
			r.Metrics = append(r.Metrics, m)
		}
		off += 2 * padded
		f.Reports = append(f.Reports, r)
	}
	return nil
}

// CCFBGenerator runs at the receiver and reproduces the feedback generation
// of the Ericsson SCReAM library the paper used: every reporting interval it
// emits one report covering the packet with the highest received sequence
// number and the Window-1 preceding sequence numbers. With the library's
// default Window of 64, more than 64 RTP packets can arrive between two
// 10 ms reports at rates above ≈7 Mbps, leaving packets unacknowledged and
// making the sender infer spurious losses — the defect analysed in §4.2.1 of
// the paper. Setting Window to 256 reproduces the paper's mitigation.
type CCFBGenerator struct {
	SenderSSRC uint32
	MediaSSRC  uint32
	// Window is the number of sequence numbers covered per report,
	// counting back from the highest received one. The Ericsson library
	// default is 64. NewCCFBGenerator sizes the arrival ring from it, so it
	// must not be raised afterwards.
	Window int

	started bool
	highest uint16
	// ring holds the arrival time of sequence number seq in slot
	// seq&(len-1), or noArrival. It is a power of two no smaller than
	// Window and stands for exactly the len(ring) sequence numbers ending
	// at highest: a slot is wiped when highest advances onto it, so a
	// sequence number reused after the 16-bit space wraps can never read
	// as received, and arrivals older than the ring (which no report can
	// cover any more) are not stored.
	ring []time.Duration
	// fb is the packet Report fills and returns.
	fb CCFB
}

// DefaultCCFBWindow is the ack window of the SCReAM library the paper used.
const DefaultCCFBWindow = 64

// noArrival marks an empty ring slot.
const noArrival = time.Duration(math.MinInt64)

// NewCCFBGenerator returns a generator with the given ack window (0 means
// DefaultCCFBWindow).
func NewCCFBGenerator(senderSSRC, mediaSSRC uint32, window int) *CCFBGenerator {
	if window <= 0 {
		window = DefaultCCFBWindow
	}
	size := 1
	for size < window && size < 1<<16 {
		size <<= 1
	}
	g := &CCFBGenerator{
		SenderSSRC: senderSSRC,
		MediaSSRC:  mediaSSRC,
		Window:     window,
		ring:       make([]time.Duration, size),
	}
	for i := range g.ring {
		g.ring[i] = noArrival
	}
	g.fb.Reports = []CCFBReport{{Metrics: make([]CCFBMetric, 0, window)}}
	return g
}

// Record notes the arrival of RTP sequence number seq at time at. Only the
// first arrival of a sequence number counts.
func (g *CCFBGenerator) Record(seq uint16, at time.Duration) {
	mask := len(g.ring) - 1
	switch {
	case !g.started:
		g.started = true
		g.highest = seq
	case seqLess(g.highest, seq):
		n := int(seq - g.highest)
		if n > len(g.ring) {
			n = len(g.ring)
		}
		for i := 0; i < n; i++ {
			g.ring[(int(seq)-i)&mask] = noArrival
		}
		g.highest = seq
	case int(g.highest-seq) >= len(g.ring):
		return
	}
	if slot := &g.ring[int(seq)&mask]; *slot == noArrival {
		*slot = at
	}
}

// Report builds the feedback packet for the current reporting instant, or
// returns nil when no packet has been received yet. The packet is owned by
// the generator and valid until the next call to Report.
func (g *CCFBGenerator) Report(now time.Duration) *CCFB {
	if !g.started {
		return nil
	}
	mask := len(g.ring) - 1
	begin := g.highest - uint16(g.Window-1)
	rep := &g.fb.Reports[0]
	rep.SSRC, rep.BeginSeq, rep.Metrics = g.MediaSSRC, begin, rep.Metrics[:0]
	for i := 0; i < g.Window; i++ {
		m := CCFBMetric{}
		if at := g.ring[int(begin+uint16(i))&mask]; at != noArrival {
			m.Received = true
			if off := now - at; off > 0 {
				m.ArrivalOffset = off
			}
		}
		rep.Metrics = append(rep.Metrics, m)
	}
	g.fb.SenderSSRC, g.fb.Timestamp = g.SenderSSRC, now
	return &g.fb
}
