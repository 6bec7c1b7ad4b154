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

// ccfbFixed is the wire size of an RFC 8888 packet without its report
// blocks: the header, the sender SSRC and the report timestamp.
const ccfbFixed = rtcpHeaderSize + 8

// ccfbBlockSize is the wire size of a report block of n metric blocks,
// padded to 32 bits.
func ccfbBlockSize(n int) int { return 8 + 2*(n+n%2) }

// putCCFB writes the fixed fields of the RFC 8888 packet that fills buf:
// the header with buf's length, the sender SSRC and the report timestamp.
func putCCFB(buf []byte, senderSSRC uint32, ts time.Duration) {
	hdr := rtcpHeader{Fmt: FmtCCFB, Type: TypeTransportFeedback, Length: wordLength(len(buf))}
	_ = hdr.marshalTo(buf) // cannot fail: buf holds the fixed fields, FmtCCFB fits its 5 bits
	binary.BigEndian.PutUint32(buf[4:], senderSSRC)
	binary.BigEndian.PutUint32(buf[len(buf)-4:], ntp32(ts))
}

// putCCFBBlock writes a report block's head at the start of buf and
// returns the 2n bytes of its metric words, which the caller fills (a lost
// packet's word stays zero).
func putCCFBBlock(buf []byte, ssrc uint32, begin uint16, n int) []byte {
	binary.BigEndian.PutUint32(buf, ssrc)
	binary.BigEndian.PutUint16(buf[4:], begin)
	binary.BigEndian.PutUint16(buf[6:], uint16(n))
	return buf[8 : 8+2*n]
}

// ccfbWord is the metric word of a packet received offset before the
// report timestamp, with the given ECN bits; the offset saturates at the
// 13-bit field.
func ccfbWord(ecn uint8, offset time.Duration) uint16 {
	ato := min(uint64(max(offset, 0))/uint64(atoUnit), atoMax)
	return 1<<15 | uint16(ecn&0x3)<<13 | uint16(ato)
}

// DecodeCCFBWord is ccfbWord's inverse: it reads one metric word. A lost
// packet reads as zero ECN and offset, whatever else its word holds.
func DecodeCCFBWord(w uint16) (received bool, ecn uint8, offset time.Duration) {
	if w>>15 == 0 {
		return false, 0, 0
	}
	return true, uint8(w >> 13 & 0x3), time.Duration(w&atoMax) * atoUnit
}

// AppendTo appends the serialized feedback packet to dst.
func (f *CCFB) AppendTo(dst []byte) ([]byte, error) {
	size := ccfbFixed
	for _, r := range f.Reports {
		if len(r.Metrics) == 0 {
			return dst, errors.New("rtp: ccfb report with no metric blocks")
		}
		if len(r.Metrics) > maxCCFBMetrics {
			return dst, fmt.Errorf("rtp: ccfb report with %d metric blocks exceeds maximum", len(r.Metrics))
		}
		size += ccfbBlockSize(len(r.Metrics))
	}
	out, buf := appendZeros(dst, size)
	putCCFB(buf, f.SenderSSRC, f.Timestamp)
	off := 8
	for _, r := range f.Reports {
		words := putCCFBBlock(buf[off:], r.SSRC, r.BeginSeq, len(r.Metrics))
		for i, m := range r.Metrics {
			if m.Received {
				binary.BigEndian.PutUint16(words[2*i:], ccfbWord(m.ECN, m.ArrivalOffset))
			}
		}
		off += ccfbBlockSize(len(r.Metrics))
	}
	return out, nil
}

// Marshal serializes the feedback packet into a new buffer.
func (f *CCFB) Marshal() ([]byte, error) { return f.AppendTo(nil) }

// CCFBView is an RFC 8888 packet that ParseCCFB has validated, read in
// place: its report blocks come off it one at a time (Next), each with its
// metric words as the bytes of the packet. It borrows the packet's buffer.
type CCFBView struct {
	SenderSSRC uint32
	// Timestamp is the report timestamp, modulo 65536 s.
	Timestamp time.Duration
	blocks    []byte // the report blocks not yet taken
}

// CCFBBlock is one report block of a CCFBView: the metric words of the
// consecutive sequence numbers [BeginSeq, BeginSeq+Len()-1].
type CCFBBlock struct {
	SSRC     uint32
	BeginSeq uint16
	words    []byte // 2 bytes per metric block, without the padding
}

// Len returns the number of metric blocks.
func (b CCFBBlock) Len() int { return len(b.words) / 2 }

// Word returns the metric word of sequence number BeginSeq+i, which
// DecodeCCFBWord reads.
func (b CCFBBlock) Word(i int) uint16 { return binary.BigEndian.Uint16(b.words[2*i:]) }

// ParseCCFB validates an RFC 8888 packet once — header, type and format,
// declared length, every report block's bound and padding — and returns the
// view that reads it in place. Nothing past the declared length is read.
func ParseCCFB(buf []byte) (CCFBView, error) {
	var hdr rtcpHeader
	if err := hdr.unmarshal(buf); err != nil {
		return CCFBView{}, err
	}
	if hdr.Type != TypeTransportFeedback || hdr.Fmt != FmtCCFB {
		return CCFBView{}, fmt.Errorf("rtp: not a ccfb packet (pt=%d fmt=%d)", hdr.Type, hdr.Fmt)
	}
	size, err := declaredSize(hdr, buf, ccfbFixed)
	if err != nil {
		return CCFBView{}, err
	}
	buf = buf[:size]
	body := buf[8 : len(buf)-4]
	for off := 0; off < len(body); {
		if off+8 > len(body) {
			return CCFBView{}, ErrShortPacket
		}
		n := int(binary.BigEndian.Uint16(body[off+6:]))
		if n > maxCCFBMetrics {
			return CCFBView{}, fmt.Errorf("rtp: ccfb report with %d metric blocks exceeds maximum", n)
		}
		if off += ccfbBlockSize(n); off > len(body) {
			return CCFBView{}, ErrShortPacket
		}
	}
	return CCFBView{
		SenderSSRC: binary.BigEndian.Uint32(buf[4:]),
		Timestamp:  fromNTP32(binary.BigEndian.Uint32(buf[len(buf)-4:])),
		blocks:     body,
	}, nil
}

// Next takes the view's next report block; ok is false once all are taken.
func (v *CCFBView) Next() (b CCFBBlock, ok bool) {
	if len(v.blocks) == 0 {
		return CCFBBlock{}, false
	}
	n := int(binary.BigEndian.Uint16(v.blocks[6:]))
	b = CCFBBlock{
		SSRC:     binary.BigEndian.Uint32(v.blocks),
		BeginSeq: binary.BigEndian.Uint16(v.blocks[4:]),
		words:    v.blocks[8 : 8+2*n],
	}
	v.blocks = v.blocks[ccfbBlockSize(n):]
	return b, true
}

// Unmarshal parses an RFC 8888 feedback packet (ParseCCFB) into f. It
// reuses the Reports and Metrics backing arrays of f, so a CCFB that is
// unmarshalled into repeatedly stops allocating once it has seen its
// largest packet.
func (f *CCFB) Unmarshal(buf []byte) error {
	v, err := ParseCCFB(buf)
	if err != nil {
		return err
	}
	f.SenderSSRC, f.Timestamp = v.SenderSSRC, v.Timestamp
	f.Reports = f.Reports[:0]
	for b, ok := v.Next(); ok; b, ok = v.Next() {
		r := CCFBReport{SSRC: b.SSRC, BeginSeq: b.BeginSeq}
		if k := len(f.Reports); k < cap(f.Reports) {
			r.Metrics = f.Reports[:k+1][k].Metrics[:0] // the slot's previous backing
		}
		r.Metrics = slices.Grow(r.Metrics, b.Len())[:b.Len()]
		for i := range r.Metrics {
			m := &r.Metrics[i]
			m.Received, m.ECN, m.ArrivalOffset = DecodeCCFBWord(b.Word(i))
		}
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
	// buf and fb are what Report encodes into and decodes back, made at
	// its first call: the run path writes reports with AppendReport alone.
	buf []byte
	fb  CCFB
}

// DefaultCCFBWindow is the ack window of the SCReAM library the paper used.
const DefaultCCFBWindow = 64

// noArrival marks an empty ring slot.
const noArrival = time.Duration(math.MinInt64)

// NewCCFBGenerator returns a generator with the given ack window (0 means
// DefaultCCFBWindow). It panics on a window above the 16 384 metric blocks
// one report can carry: no report from it could be marshalled.
func NewCCFBGenerator(senderSSRC, mediaSSRC uint32, window int) *CCFBGenerator {
	g := new(CCFBGenerator)
	g.Reset(senderSSRC, mediaSSRC, window)
	return g
}

// Reset makes g the generator NewCCFBGenerator returns, on the arrival ring
// it holds when that is the window's size.
func (g *CCFBGenerator) Reset(senderSSRC, mediaSSRC uint32, window int) {
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
	ring := g.ring
	if len(ring) != size {
		ring = make([]time.Duration, size)
	}
	*g = CCFBGenerator{SenderSSRC: senderSSRC, MediaSSRC: mediaSSRC, Window: window, ring: ring}
	for i := range g.ring {
		g.ring[i] = noArrival
	}
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

// AppendReport appends the feedback packet for the current reporting
// instant to dst, in one pass from the arrival ring: the header, the one
// report block and a metric word per sequence number of the window. ok is
// false, and dst returned as it was, when no packet has been received yet.
func (g *CCFBGenerator) AppendReport(dst []byte, now time.Duration) (out []byte, ok bool) {
	if !g.started {
		return dst, false
	}
	out, buf := appendZeros(dst, ccfbFixed+ccfbBlockSize(g.Window))
	putCCFB(buf, g.SenderSSRC, now)
	begin := g.highest - uint16(g.Window-1)
	words := putCCFBBlock(buf[8:], g.MediaSSRC, begin, g.Window)
	// The window is at most two runs of the ring: from begin's slot to the
	// ring's end, then from its start.
	start := int(begin) & (len(g.ring) - 1)
	for len(words) > 0 {
		run := g.ring[start:min(len(g.ring), start+len(words)/2)]
		for i, at := range run {
			if at != noArrival {
				binary.BigEndian.PutUint16(words[2*i:], ccfbWord(0, now-at))
			}
		}
		words, start = words[2*len(run):], 0
	}
	return out, true
}

// Report returns the feedback packet AppendReport writes for the current
// reporting instant, decoded, or nil when no packet has been received yet.
// Its Timestamp is now itself, which the wire carries only to 1/65536 s.
// The packet is owned by the generator and valid until the next call to
// Report.
func (g *CCFBGenerator) Report(now time.Duration) *CCFB {
	var ok bool
	if g.buf, ok = g.AppendReport(g.buf[:0], now); !ok {
		return nil
	}
	if err := g.fb.Unmarshal(g.buf); err != nil {
		panic(err) // AppendReport wrote it
	}
	g.fb.Timestamp = now
	return &g.fb
}
