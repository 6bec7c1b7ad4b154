package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"
)

// RunMeta heads one run's section of a JSONL trace export.
type RunMeta struct {
	// Label names the configuration (core's Config.Label()).
	Label string
	// Run is the campaign run index.
	Run int
	// Seed is the run's resolved seed.
	Seed int64
	// Duration is the run length.
	Duration time.Duration
	// Events is the total emitted event count; Dropped is how many a
	// bounded ring overwrote.
	Events  int64
	Dropped int64
}

// WriteJSONL writes one run's trace: a meta line followed by one line per
// event, in emission order — the events of each chunk in turn, so a plain
// slice is one chunk and a tracer's Chunks() are written without being
// gathered first. The rendering is hand-built with a fixed key order and
// strconv formatting, so the bytes are a pure function of the values — the
// property the golden-trace suite and the serial-vs-parallel determinism
// check rely on.
//
// An event JSONL cannot carry — a Kind or Dir without a name, a V that is
// NaN or infinite — is an error naming the run and the event's index, and
// the lines before it may have been written.
func WriteJSONL(w io.Writer, meta RunMeta, chunks ...[]Event) error {
	bw := bufio.NewWriter(w)
	buf := appendMetaJSON(make([]byte, 0, 256), &meta)
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	var idx int64
	for _, events := range chunks {
		for i := range events {
			var ok bool
			if buf, ok = appendEventJSON(buf[:0], &events[i]); !ok {
				return eventError(meta.Run, idx, &events[i])
			}
			if _, err := bw.Write(buf); err != nil {
				return err
			}
			idx++
		}
	}
	return bw.Flush()
}

// TraceSection is one run's part of a multi-run JSONL export: the meta
// line's values and the run's retained events, as a tracer's Chunks() hands
// them out.
type TraceSection struct {
	Meta   RunMeta
	Chunks [][]Event
}

// WriteJSONLRuns writes the sections back to back, each exactly as
// WriteJSONL(w, s.Meta, s.Chunks...) would, so the bytes are the same as
// the serial loop's. The events are rendered in pieces of at most
// chunkEvents — a run's meta line ahead of its first piece — on the
// available cores, and written to w in order from the caller's goroutine,
// one write per piece; at most a window of pieces is held at once, so the
// memory used does not grow with the runs' length. An event JSONL cannot
// carry is WriteJSONL's error, after the lines before it were written.
func WriteJSONLRuns(w io.Writer, sections []TraceSection) error {
	var (
		sec     int   // the section being cut into pieces
		chunk   int   // its chunk
		off     int   // the next event in that chunk
		idx     int64 // the next event's index in the run
		started bool  // the section's meta line has gone into a piece
	)
	produce := func(p *exportPiece) bool {
		for sec < len(sections) {
			s := &sections[sec]
			for chunk < len(s.Chunks) && off == len(s.Chunks[chunk]) {
				chunk, off = chunk+1, 0
			}
			if chunk == len(s.Chunks) {
				if !started { // a run without events is its meta line alone
					*p = exportPiece{sec: s, head: true, out: p.out}
					started = true
					return true
				}
				sec, chunk, off, idx, started = sec+1, 0, 0, 0, false
				continue
			}
			events := s.Chunks[chunk][off:]
			events = events[:min(len(events), chunkEvents)]
			*p = exportPiece{sec: s, head: !started, events: events, first: idx, out: p.out}
			off += len(events)
			idx += int64(len(events))
			started = true
			return true
		}
		return false
	}
	consume := func(p *exportPiece) error {
		if _, err := w.Write(p.out); err != nil {
			return err
		}
		return p.err
	}
	return ordered(produce, (*exportPiece).render, consume)
}

// exportPiece is one piece of a WriteJSONLRuns job: up to chunkEvents
// consecutive events of one run, rendered into a slot's recycled buffer.
type exportPiece struct {
	sec    *TraceSection
	head   bool // the run's meta line goes first
	events []Event
	first  int64 // run index of events[0]
	out    []byte
	err    error
}

// render writes the piece's lines into out, stopping at an event JSONL
// cannot carry.
func (p *exportPiece) render() {
	out := slices.Grow(p.out[:0], 256+80*len(p.events)) // a line averages 69 bytes
	if p.head {
		out = appendMetaJSON(out, &p.sec.Meta)
	}
	for i := range p.events {
		n := len(out)
		var ok bool
		if out, ok = appendEventJSON(out, &p.events[i]); !ok {
			out = out[:n]
			p.err = eventError(p.sec.Meta.Run, p.first+int64(i), &p.events[i])
			break
		}
	}
	p.out = out
}

// appendMetaJSON renders a run's meta line.
func appendMetaJSON(buf []byte, meta *RunMeta) []byte {
	buf = append(buf, `{"kind":"meta","label":`...)
	buf = appendJSONString(buf, meta.Label)
	buf = append(buf, `,"run":`...)
	buf = strconv.AppendInt(buf, int64(meta.Run), 10)
	buf = append(buf, `,"seed":`...)
	buf = strconv.AppendInt(buf, meta.Seed, 10)
	buf = append(buf, `,"duration_us":`...)
	buf = strconv.AppendInt(buf, meta.Duration.Microseconds(), 10)
	buf = append(buf, `,"events":`...)
	buf = strconv.AppendInt(buf, meta.Events, 10)
	buf = append(buf, `,"dropped":`...)
	buf = strconv.AppendInt(buf, meta.Dropped, 10)
	return append(buf, "}\n"...)
}

// eventError says why an event cannot be written, naming its run and its
// index there.
func eventError(run int, idx int64, ev *Event) error {
	var why string
	switch {
	case int(ev.Kind) >= numKinds:
		why = fmt.Sprintf("kind %d has no JSONL name", ev.Kind)
	case int(ev.Dir) >= numDirs:
		why = fmt.Sprintf("dir %d has no JSONL name", ev.Dir)
	default:
		why = fmt.Sprintf("v %v is not a JSON number", ev.V)
	}
	return fmt.Errorf("obs: run %d event %d: %s", run, idx, why)
}

// appendJSONString renders s as a JSON string. strconv.AppendQuote is not
// a substitute: its \x7f, \a and \xff escapes are Go syntax that a JSON
// reader rejects. Printable ASCII — every label Config.Label() produces —
// renders the same either way; an invalid UTF-8 byte becomes U+FFFD, which
// is what encoding/json would read it back as anyway.
func appendJSONString(buf []byte, s string) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	for _, r := range s { // an invalid byte ranges as utf8.RuneError
		switch {
		case r == '"' || r == '\\':
			buf = append(buf, '\\', byte(r))
		case r < 0x20:
			buf = append(buf, '\\', 'u', '0', '0', hex[r>>4], hex[r&0xf])
		case r == utf8.RuneError:
			buf = append(buf, `\ufffd`...)
		default:
			buf = utf8.AppendRune(buf, r)
		}
	}
	return append(buf, '"')
}

// numKinds and numDirs bound the kinds and dirs with a JSONL name.
const (
	numKinds = int(KindCellOverloadEnd) + 1
	numDirs  = int(DirUp2) + 1
)

// eventHead is the part of an event line between t_us and seq's value —
// `,"kind":"recv","dir":"up","ctrl":true,"seq":` — for every (kind, dir,
// ctrl, rtx): what appendEventJSON writes and scanEvent looks up whole.
var eventHead = func() (t [numKinds][numDirs][4]string) {
	for k := range t {
		for d := range t[k] {
			for f := range t[k][d] {
				s := `,"kind":"` + Kind(k).String() + `"`
				if d != int(DirNone) {
					s += `,"dir":"` + Dir(d).String() + `"`
				}
				if uint8(f)&FlagCtrl != 0 {
					s += `,"ctrl":true`
				}
				if uint8(f)&FlagRTX != 0 {
					s += `,"rtx":true`
				}
				t[k][d][f] = s + `,"seq":`
			}
		}
	}
	return t
}()

// appendEventJSON renders one event line. Key order is fixed: t_us, kind,
// dir (omitted for DirNone), ctrl (omitted unless set), rtx (omitted
// unless set), seq, aux, v (omitted when zero). ok is false, with buf
// holding part of a line, for an event JSONL cannot carry: a Kind or Dir
// without a name, a NaN or infinite V.
func appendEventJSON(buf []byte, ev *Event) (_ []byte, ok bool) {
	if int(ev.Kind) >= numKinds || int(ev.Dir) >= numDirs {
		return buf, false
	}
	buf = append(buf, `{"t_us":`...)
	buf = strconv.AppendInt(buf, ev.T.Microseconds(), 10)
	buf = append(buf, eventHead[ev.Kind][ev.Dir][ev.Flags&(FlagCtrl|FlagRTX)]...)
	buf = strconv.AppendInt(buf, ev.Seq, 10)
	buf = append(buf, `,"aux":`...)
	buf = strconv.AppendInt(buf, ev.Aux, 10)
	if ev.V != 0 {
		buf = append(buf, `,"v":`...)
		if buf, ok = appendMillionths(buf, ev.V); !ok {
			if math.IsNaN(ev.V) || math.IsInf(ev.V, 0) {
				return buf, false
			}
			buf = strconv.AppendFloat(buf, ev.V, 'g', -1, 64)
		}
	}
	return append(buf, "}\n"...), true
}

// appendMillionths appends v as strconv.AppendFloat(buf, v, 'g', -1, 64)
// does, when v is a whole number k of millionths with 1e-4 ≤ |v| < 1e6 —
// every one-way delay the links record, float64(ns)/1e6. In that range 'g'
// writes plain decimals, and |k| < 10¹² < 2⁵³ makes k's digits the
// shortest decimal that reads back as v: float64(k)/1e6 == v says k·10⁻⁶
// rounds to v, and a shorter decimal would lie at least one unit of k's
// last digit from it, which is more than v's rounding interval holds (an
// ulp of v is at most |k|·2⁻⁵²·10⁻⁶). ok is false, and buf unchanged, for
// any other v.
func appendMillionths(buf []byte, v float64) (_ []byte, ok bool) {
	a := math.Abs(v)
	if !(a >= 1e-4 && a < 1e6) {
		return buf, false
	}
	k := uint64(a*1e6 + 0.5)
	if float64(k)/1e6 != a {
		return buf, false
	}
	if v < 0 {
		buf = append(buf, '-')
	}
	buf = strconv.AppendUint(buf, k/1e6, 10)
	if f := k % 1e6; f != 0 {
		var d [7]byte
		d[0] = '.'
		for i := 6; i > 0; i-- {
			d[i] = byte('0' + f%10)
			f /= 10
		}
		n := len(d)
		for d[n-1] == '0' {
			n--
		}
		buf = append(buf, d[:n]...)
	}
	return buf, true
}
