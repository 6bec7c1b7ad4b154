package rtp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
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

// maxCCFBMetrics is RFC 8888's bound on the metric blocks of one report
// block (§3.1): a quarter of the 16-bit sequence space, so the sequence
// numbers one block covers are in serial-number order.
const maxCCFBMetrics = 1 << 14

// AppendTo appends the serialized feedback packet to dst.
func (f *CCFB) AppendTo(dst []byte) ([]byte, error) {
	size := rtcpHeaderSize + 4 // header + sender ssrc
	for _, r := range f.Reports {
		if len(r.Metrics) == 0 {
			return dst, errors.New("rtp: ccfb report with no metric blocks")
		}
		if len(r.Metrics) > maxCCFBMetrics {
			return dst, fmt.Errorf("rtp: ccfb report with %d metric blocks exceeds maximum", len(r.Metrics))
		}
		size += 8 + 2*(len(r.Metrics)+len(r.Metrics)%2) // padded to 32 bits
	}
	size += 4 // report timestamp
	out, buf := appendZeros(dst, size)
	hdr := rtcpHeader{Fmt: FmtCCFB, Type: TypeTransportFeedback, Length: wordLength(size)}
	if err := hdr.marshalTo(buf); err != nil {
		return dst, err
	}
	binary.BigEndian.PutUint32(buf[4:], f.SenderSSRC)
	off := 8
	for _, r := range f.Reports {
		binary.BigEndian.PutUint32(buf[off:], r.SSRC)
		binary.BigEndian.PutUint16(buf[off+4:], r.BeginSeq)
		binary.BigEndian.PutUint16(buf[off+6:], uint16(len(r.Metrics)))
		off += 8
		for _, m := range r.Metrics {
			if m.Received {
				ato := min(max(m.ArrivalOffset/atoUnit, 0), atoMax)
				binary.BigEndian.PutUint16(buf[off:], 1<<15|uint16(m.ECN&0x3)<<13|uint16(ato))
			}
			off += 2
		}
		off += 2 * (len(r.Metrics) % 2) // zero padding block
	}
	binary.BigEndian.PutUint32(buf[off:], ntp32(f.Timestamp))
	return out, nil
}

// Marshal serializes the feedback packet into a new buffer.
func (f *CCFB) Marshal() ([]byte, error) { return f.AppendTo(nil) }

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
		if k := len(f.Reports); k < cap(f.Reports) {
			r.Metrics = f.Reports[:k+1][k].Metrics[:0] // the slot's previous backing
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
		r.Metrics = slices.Grow(r.Metrics, n)[:n]
		for i := range r.Metrics {
			w := binary.BigEndian.Uint16(body[off+2*i:])
			if w>>15 == 0 {
				r.Metrics[i] = CCFBMetric{}
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
// DefaultCCFBWindow). It panics on a window above the 16 384 metric blocks
// one report can carry: no report from it could be marshalled.
func NewCCFBGenerator(senderSSRC, mediaSSRC uint32, window int) *CCFBGenerator {
	if window <= 0 {
		window = DefaultCCFBWindow
	}
	if window > maxCCFBMetrics {
		panic(fmt.Sprintf("rtp: ccfb window %d exceeds the %d metric blocks of a report", window, maxCCFBMetrics))
	}
	size := 1
	for size < window {
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
	rep.SSRC, rep.BeginSeq, rep.Metrics = g.MediaSSRC, begin, rep.Metrics[:g.Window]
	for i := range rep.Metrics {
		if at := g.ring[int(begin+uint16(i))&mask]; at != noArrival {
			rep.Metrics[i] = CCFBMetric{Received: true, ArrivalOffset: max(now-at, 0)}
		} else {
			rep.Metrics[i] = CCFBMetric{}
		}
	}
	g.fb.SenderSSRC, g.fb.Timestamp = g.SenderSSRC, now
	return &g.fb
}
