package rtp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"
)

// deltaUnit is the resolution of TWCC receive deltas (250 µs).
const deltaUnit = 250 * time.Microsecond

// refTimeUnit is the resolution of the 24-bit TWCC reference time (64 ms).
const refTimeUnit = 64 * time.Millisecond

// Arrival describes the receive status of one transport-wide sequence
// number, used both to build and to interpret TWCC feedback.
type Arrival struct {
	Received bool
	// At is the arrival time relative to the receiver's epoch. It is
	// meaningful only when Received is true. Round-trips through the wire
	// format quantize it to 250 µs.
	At time.Duration
}

// TWCC is a transport-wide congestion control feedback packet
// (draft-holmer-rmcat-transport-wide-cc-extensions-01). Packets describes
// consecutive transport sequence numbers starting at BaseSeq.
//
// AppendTo and Unmarshal keep their working slices on the struct, and
// Unmarshal refills Packets in place, so a TWCC that is appended or
// unmarshalled into repeatedly stops allocating once it has seen its
// largest packet (Marshal still makes the buffer it returns).
type TWCC struct {
	SenderSSRC uint32
	MediaSSRC  uint32
	BaseSeq    uint16
	FbPktCount uint8
	Packets    []Arrival

	// Scratch of the last Marshal or Unmarshal: status symbols, receive
	// deltas, status chunks.
	syms   []uint8
	deltas []int32
	chunks []uint16
}

// Packet status symbols.
const (
	symNotReceived = 0
	symSmallDelta  = 1
	symLargeDelta  = 2
)

var errDeltaOverflow = errors.New("rtp: twcc receive delta exceeds 16-bit range; send feedback more often")

// symbols computes the per-packet status symbols and receive deltas (in
// 250 µs ticks) for the feedback into f.syms and f.deltas, and returns the
// reference time.
func (f *TWCC) symbols() (refTime time.Duration, err error) {
	if cap(f.syms) < len(f.Packets) {
		f.syms = make([]uint8, len(f.Packets))
	}
	f.syms, f.deltas = f.syms[:len(f.Packets)], f.deltas[:0]
	prev := time.Duration(-1)
	for i, p := range f.Packets {
		if !p.Received {
			f.syms[i] = symNotReceived
			continue
		}
		if prev < 0 {
			// Reference time: first received arrival rounded down to 64 ms.
			refTime = p.At / refTimeUnit * refTimeUnit
			prev = refTime
		}
		delta := (p.At - prev) / deltaUnit
		prev += delta * deltaUnit
		if delta >= 0 && delta <= 255 {
			f.syms[i] = symSmallDelta
		} else if delta >= -32768 && delta <= 32767 {
			f.syms[i] = symLargeDelta
		} else {
			return 0, errDeltaOverflow
		}
		f.deltas = append(f.deltas, int32(delta))
	}
	return refTime, nil
}

// appendChunks packs status symbols into 16-bit packet status chunks using
// run-length chunks for uniform runs and two-bit status-vector chunks
// otherwise, appending them to chunks.
func appendChunks(chunks []uint16, syms []uint8) []uint16 {
	for i := 0; i < len(syms); {
		run := 1
		for i+run < len(syms) && syms[i+run] == syms[i] && run < 8191 {
			run++
		}
		if run >= 7 || i+run == len(syms) {
			// Run-length chunk: 0 | S(2) | run(13).
			chunks = append(chunks, uint16(syms[i])<<13|uint16(run))
			i += run
			continue
		}
		// Two-bit status vector chunk: 1 | 1 | 7 × S(2). Trailing positions
		// beyond the symbol list encode as not-received; the decoder stops
		// at the packet status count.
		var c uint16 = 1<<15 | 1<<14
		for j := 0; j < 7; j++ {
			var s uint16
			if i+j < len(syms) {
				s = uint16(syms[i+j])
			}
			c |= s << (12 - 2*j)
		}
		chunks = append(chunks, c)
		i += 7
	}
	return chunks
}

// AppendTo appends the serialized feedback packet to dst.
func (f *TWCC) AppendTo(dst []byte) ([]byte, error) {
	if len(f.Packets) == 0 {
		return dst, errors.New("rtp: twcc feedback with no packets")
	}
	if len(f.Packets) > 0xFFFF {
		return dst, fmt.Errorf("rtp: twcc feedback covers %d packets, max 65535", len(f.Packets))
	}
	refTime, err := f.symbols()
	if err != nil {
		return dst, err
	}
	f.chunks = appendChunks(f.chunks[:0], f.syms)
	syms, deltas, chunks := f.syms, f.deltas, f.chunks

	deltaBytes := 0
	for _, s := range syms {
		switch s {
		case symSmallDelta:
			deltaBytes++
		case symLargeDelta:
			deltaBytes += 2
		}
	}
	size := rtcpHeaderSize + 8 + 8 + 2*len(chunks) + deltaBytes
	if rem := size % 4; rem != 0 {
		size += 4 - rem
	}
	out, buf := appendZeros(dst, size)
	hdr := rtcpHeader{Fmt: FmtTWCC, Type: TypeTransportFeedback, Length: wordLength(size)}
	if err := hdr.marshalTo(buf); err != nil {
		return dst, err
	}
	binary.BigEndian.PutUint32(buf[4:], f.SenderSSRC)
	binary.BigEndian.PutUint32(buf[8:], f.MediaSSRC)
	binary.BigEndian.PutUint16(buf[12:], f.BaseSeq)
	binary.BigEndian.PutUint16(buf[14:], uint16(len(f.Packets)))
	ref24 := uint32(refTime/refTimeUnit) & 0xFFFFFF
	buf[16] = byte(ref24 >> 16)
	buf[17] = byte(ref24 >> 8)
	buf[18] = byte(ref24)
	buf[19] = f.FbPktCount
	off := 20
	for _, c := range chunks {
		binary.BigEndian.PutUint16(buf[off:], c)
		off += 2
	}
	di := 0
	for _, s := range syms {
		switch s {
		case symSmallDelta:
			buf[off] = byte(deltas[di])
			off++
			di++
		case symLargeDelta:
			binary.BigEndian.PutUint16(buf[off:], uint16(int16(deltas[di])))
			off += 2
			di++
		}
	}
	return out, nil
}

// Marshal serializes the feedback packet into a new buffer.
func (f *TWCC) Marshal() ([]byte, error) { return f.AppendTo(nil) }

// Unmarshal parses a TWCC feedback packet, reconstructing per-packet arrival
// times relative to the receiver epoch (quantized to 250 µs). It refills f,
// so f can be reused from packet to packet; after an error f.Packets is
// empty, whatever it held before.
func (f *TWCC) Unmarshal(buf []byte) error {
	f.Packets = f.Packets[:0]
	var hdr rtcpHeader
	if err := hdr.unmarshal(buf); err != nil {
		return err
	}
	if hdr.Type != TypeTransportFeedback || hdr.Fmt != FmtTWCC {
		return fmt.Errorf("rtp: not a twcc packet (pt=%d fmt=%d)", hdr.Type, hdr.Fmt)
	}
	size, err := declaredSize(hdr, buf, 20)
	if err != nil {
		return err
	}
	buf = buf[:size]
	f.SenderSSRC = binary.BigEndian.Uint32(buf[4:])
	f.MediaSSRC = binary.BigEndian.Uint32(buf[8:])
	f.BaseSeq = binary.BigEndian.Uint16(buf[12:])
	count := int(binary.BigEndian.Uint16(buf[14:]))
	ref24 := uint32(buf[16])<<16 | uint32(buf[17])<<8 | uint32(buf[18])
	refTime := time.Duration(ref24) * refTimeUnit
	f.FbPktCount = buf[19]

	// Decode status chunks.
	if cap(f.syms) < count {
		f.syms = make([]uint8, 0, count)
	}
	syms := f.syms[:0]
	off := 20
	for len(syms) < count {
		if off+2 > len(buf) {
			return ErrShortPacket
		}
		c := binary.BigEndian.Uint16(buf[off:])
		off += 2
		if c>>15 == 0 { // run length
			sym := uint8(c >> 13 & 0x3)
			run := int(c & 0x1FFF)
			for i := 0; i < run && len(syms) < count; i++ {
				syms = append(syms, sym)
			}
		} else if c>>14&1 == 0 { // one-bit vector: 14 symbols
			for i := 0; i < 14 && len(syms) < count; i++ {
				syms = append(syms, uint8(c>>(13-i)&1))
			}
		} else { // two-bit vector: 7 symbols
			for i := 0; i < 7 && len(syms) < count; i++ {
				syms = append(syms, uint8(c>>(12-2*i)&0x3))
			}
		}
	}

	// Decode deltas and reconstruct arrival times.
	if cap(f.Packets) < count {
		f.Packets = make([]Arrival, 0, count)
	}
	pkts := f.Packets[:0]
	at := refTime
	for _, s := range syms {
		switch s {
		case symNotReceived:
			pkts = append(pkts, Arrival{})
		case symSmallDelta:
			if off+1 > len(buf) {
				return ErrShortPacket
			}
			at += time.Duration(buf[off]) * deltaUnit
			off++
			pkts = append(pkts, Arrival{Received: true, At: at})
		case symLargeDelta:
			if off+2 > len(buf) {
				return ErrShortPacket
			}
			at += time.Duration(int16(binary.BigEndian.Uint16(buf[off:]))) * deltaUnit
			off += 2
			pkts = append(pkts, Arrival{Received: true, At: at})
		default:
			return fmt.Errorf("rtp: reserved twcc status symbol %d", s)
		}
	}
	f.Packets = pkts
	return nil
}

// TWCCRecorder runs at the receiver: it records the arrival (and observes
// the loss) of transport-wide sequence numbers and periodically flushes them
// into feedback packets covering the contiguous range since the last flush.
type TWCCRecorder struct {
	SenderSSRC uint32
	MediaSSRC  uint32

	started bool
	nextSeq uint16 // first sequence number of the next feedback range
	lastSeq uint16 // highest sequence number seen (unwrapped ordering)
	fbCount uint8

	// arrivals is a power-of-two ring over the open range with an
	// occupancy bitset: slot seq&(len−1) holds seq's arrival time when its
	// bit in have is set. Every set bit lies fewer than len(arrivals)
	// numbers past nextSeq — an arrival further out grows the ring first —
	// so no two recorded numbers share a slot, and Flush clears the slots
	// of the range it reports. A run holds about one feedback interval of
	// slots, not the 16-bit space. pending counts set bits.
	arrivals []time.Duration
	have     []uint64
	pending  int

	// fb is the packet Flush fills and returns.
	fb TWCC
}

// NewTWCCRecorder returns a recorder producing feedback with the given SSRCs.
func NewTWCCRecorder(senderSSRC, mediaSSRC uint32) *TWCCRecorder {
	return &TWCCRecorder{
		SenderSSRC: senderSSRC,
		MediaSSRC:  mediaSSRC,
	}
}

// Reset makes r the recorder NewTWCCRecorder(senderSSRC, mediaSSRC)
// returns, on the storage r grew: its ring, emptied, and its report.
func (r *TWCCRecorder) Reset(senderSSRC, mediaSSRC uint32) {
	clear(r.have)
	*r = TWCCRecorder{SenderSSRC: senderSSRC, MediaSSRC: mediaSSRC, arrivals: r.arrivals, have: r.have, fb: r.fb}
}

// seqLess reports whether a precedes b in RFC 1982 serial-number order.
func seqLess(a, b uint16) bool {
	return a != b && b-a < 0x8000
}

// Record notes the arrival of transport sequence number seq at time at.
func (r *TWCCRecorder) Record(seq uint16, at time.Duration) {
	if !r.started {
		r.started = true
		r.nextSeq = seq
		r.lastSeq = seq
	} else if seqLess(seq, r.nextSeq) {
		// Arrived after its range was already flushed; it was reported as
		// lost and is not re-reported.
		return
	} else if seqLess(r.lastSeq, seq) {
		r.lastSeq = seq
	}
	if off := int(seq - r.nextSeq); off >= len(r.arrivals) {
		r.grow(off)
	}
	i := uint(seq) & uint(len(r.arrivals)-1)
	if w, b := i/64, uint64(1)<<(i%64); r.have[w]&b == 0 {
		r.have[w] |= b
		r.arrivals[i] = at
		r.pending++
	}
}

// twccMinSlots is the ring's smallest size: one bitset word.
const twccMinSlots = 64

// grow resizes the ring to the smallest power of two, at least
// twccMinSlots, that reaches off numbers past nextSeq, and re-places the
// set bits — all of them lie in the len(arrivals) numbers from nextSeq.
func (r *TWCCRecorder) grow(off int) {
	n := twccMinSlots
	for n <= off {
		n *= 2
	}
	arrivals, have := make([]time.Duration, n), make([]uint64, n/64)
	oldMask, mask := uint(len(r.arrivals)-1), uint(n-1)
	for k, seq := 0, r.nextSeq; k < len(r.arrivals); k, seq = k+1, seq+1 {
		if o := uint(seq) & oldMask; r.have[o/64]&(1<<(o%64)) != 0 {
			i := uint(seq) & mask
			have[i/64] |= 1 << (i % 64)
			arrivals[i] = r.arrivals[o]
		}
	}
	r.arrivals, r.have = arrivals, have
}

// Flush builds a feedback packet covering [nextSeq, lastSeq] and resets the
// range. It returns nil when there is nothing to report. The packet is owned
// by the recorder and valid until the next call to Flush.
func (r *TWCCRecorder) Flush() *TWCC {
	if !r.started {
		return nil
	}
	n := int(r.lastSeq-r.nextSeq) + 1
	if n <= 0 || r.pending == 0 {
		return nil
	}
	fb := &r.fb
	fb.SenderSSRC, fb.MediaSSRC, fb.BaseSeq, fb.FbPktCount = r.SenderSSRC, r.MediaSSRC, r.nextSeq, r.fbCount
	r.fbCount++
	fb.Packets = slices.Grow(fb.Packets[:0], n)
	// A range longer than the ring (only an empty one reads as all 65 536
	// numbers) finds every bit cleared after its first len(arrivals) steps.
	seq, mask := r.nextSeq, uint(len(r.arrivals)-1)
	for k := 0; k < n; k++ {
		i := uint(seq) & mask
		if w, b := i/64, uint64(1)<<(i%64); r.have[w]&b != 0 {
			fb.Packets = append(fb.Packets, Arrival{Received: true, At: r.arrivals[i]})
			r.have[w] &^= b
			r.pending--
		} else {
			fb.Packets = append(fb.Packets, Arrival{})
		}
		seq++
	}
	r.nextSeq = seq
	return fb
}
