package obs

import (
	"bufio"
	"io"
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
func WriteJSONL(w io.Writer, meta RunMeta, chunks ...[]Event) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 256)

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
	buf = append(buf, "}\n"...)
	if _, err := bw.Write(buf); err != nil {
		return err
	}

	for _, events := range chunks {
		for i := range events {
			buf = appendEventJSON(buf[:0], &events[i])
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
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

// appendEventJSON renders one event line. Key order is fixed: t_us, kind,
// dir (omitted for DirNone), ctrl (omitted unless set), rtx (omitted
// unless set), seq, aux, v (omitted when zero).
func appendEventJSON(buf []byte, ev *Event) []byte {
	buf = append(buf, `{"t_us":`...)
	buf = strconv.AppendInt(buf, ev.T.Microseconds(), 10)
	buf = append(buf, `,"kind":"`...)
	buf = append(buf, ev.Kind.String()...)
	buf = append(buf, '"')
	if d := ev.Dir.String(); d != "" {
		buf = append(buf, `,"dir":"`...)
		buf = append(buf, d...)
		buf = append(buf, '"')
	}
	if ev.Flags&FlagCtrl != 0 {
		buf = append(buf, `,"ctrl":true`...)
	}
	if ev.Flags&FlagRTX != 0 {
		buf = append(buf, `,"rtx":true`...)
	}
	buf = append(buf, `,"seq":`...)
	buf = strconv.AppendInt(buf, ev.Seq, 10)
	buf = append(buf, `,"aux":`...)
	buf = strconv.AppendInt(buf, ev.Aux, 10)
	if ev.V != 0 {
		buf = append(buf, `,"v":`...)
		buf = strconv.AppendFloat(buf, ev.V, 'g', -1, 64)
	}
	return append(buf, "}\n"...)
}
