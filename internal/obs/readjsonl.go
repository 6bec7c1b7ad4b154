package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// kindByName inverts Kind.String for every kind WriteJSONL emits. Built
// once; KindFromString and the event scanner share it.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, int(KindCellOverloadEnd)+1)
	for k := KindSend; k <= KindCellOverloadEnd; k++ {
		m[k.String()] = k
	}
	return m
}()

// KindFromString maps a JSONL kind value back to its Kind. It is the
// inverse of Kind.String for every kind WriteJSONL emits.
func KindFromString(s string) (Kind, bool) {
	k, ok := kindByName[s]
	return k, ok
}

// DirFromString maps a JSONL dir value back to its Dir; the empty string is
// DirNone (the writer omits the key for it).
func DirFromString(s string) (Dir, bool) {
	switch s {
	case "":
		return DirNone, true
	case "up":
		return DirUp, true
	case "down":
		return DirDown, true
	case "up2":
		return DirUp2, true
	}
	return 0, false
}

// TraceRun is one run's section of a JSONL trace: its meta line and the
// events that followed it.
type TraceRun struct {
	Meta   RunMeta
	Events []Event
}

// jsonlLine is the union of the meta-line and event-line fields; kind
// discriminates. Unknown keys are ignored, so the reader tolerates schema
// additions.
type jsonlLine struct {
	Kind string `json:"kind"`

	// Meta fields.
	Label      string `json:"label"`
	Run        int    `json:"run"`
	Seed       int64  `json:"seed"`
	DurationUs int64  `json:"duration_us"`
	Events     int64  `json:"events"`
	Dropped    int64  `json:"dropped"`

	// Event fields.
	TUs  int64   `json:"t_us"`
	Dir  string  `json:"dir"`
	Ctrl bool    `json:"ctrl"`
	Rtx  bool    `json:"rtx"`
	Seq  int64   `json:"seq"`
	Aux  int64   `json:"aux"`
	V    float64 `json:"v"`
}

// presizeCap bounds how many events a meta line may reserve ahead of the
// lines themselves, so a hostile meta cannot drive allocation; a longer run
// grows by append from there.
const presizeCap = 1 << 16

// ReadJSONL parses a trace written by WriteJSONL (one or more runs) back
// into per-run event slices. Event times come back at microsecond
// granularity — the writer's truncation — and V round-trips exactly
// (strconv 'g', -1). Events before the first meta line are an error, as is
// an unknown kind or dir.
//
// Lines in the exact form appendEventJSON writes take scanEvent; every
// other line — meta lines, and anything a foreign producer might write —
// goes through encoding/json into a jsonlLine, the route that defines what
// is accepted and what each error says.
func ReadJSONL(r io.Reader) ([]TraceRun, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var runs []TraceRun
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		ev, ok := scanEvent(raw)
		if !ok {
			var ln jsonlLine
			if err := json.Unmarshal(raw, &ln); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
			}
			if ln.Kind == "meta" {
				runs = append(runs, TraceRun{Meta: ln.meta()})
				continue
			}
			if len(runs) > 0 {
				var err error
				if ev, err = ln.event(); err != nil {
					return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
				}
			}
		}
		if len(runs) == 0 {
			return nil, fmt.Errorf("obs: trace line %d: event before any meta line", lineNo)
		}
		cur := &runs[len(runs)-1]
		if cur.Events == nil {
			if n := cur.Meta.Events - cur.Meta.Dropped; n > 0 {
				cur.Events = make([]Event, 0, min(n, presizeCap))
			}
		}
		cur.Events = append(cur.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return runs, nil
}

// meta converts a decoded meta line.
func (ln *jsonlLine) meta() RunMeta {
	return RunMeta{
		Label:    ln.Label,
		Run:      ln.Run,
		Seed:     ln.Seed,
		Duration: time.Duration(ln.DurationUs) * time.Microsecond,
		Events:   ln.Events,
		Dropped:  ln.Dropped,
	}
}

// event converts a decoded event line.
func (ln *jsonlLine) event() (Event, error) {
	kind, ok := KindFromString(ln.Kind)
	if !ok {
		return Event{}, fmt.Errorf("unknown kind %q", ln.Kind)
	}
	dir, ok := DirFromString(ln.Dir)
	if !ok {
		return Event{}, fmt.Errorf("unknown dir %q", ln.Dir)
	}
	var flags uint8
	if ln.Ctrl {
		flags |= FlagCtrl
	}
	if ln.Rtx {
		flags |= FlagRTX
	}
	return Event{
		T:     time.Duration(ln.TUs) * time.Microsecond,
		Kind:  kind,
		Dir:   dir,
		Flags: flags,
		Seq:   ln.Seq,
		Aux:   ln.Aux,
		V:     ln.V,
	}, nil
}

// scanEvent decodes an event line in the exact form appendEventJSON writes:
// the same keys in the same order with nothing between the tokens. It is
// strict — ok is false for a line that deviates by a single byte, and the
// caller takes the generic route, so scanEvent never has to decide what a
// malformed line means. It allocates nothing.
func scanEvent(b []byte) (ev Event, ok bool) {
	var tus int64
	if b, ok = skip(b, `{"t_us":`); !ok {
		return ev, false
	}
	if tus, b, ok = scanInt(b); !ok {
		return ev, false
	}
	ev.T = time.Duration(tus) * time.Microsecond

	var name []byte
	if b, ok = skip(b, `,"kind":"`); !ok {
		return ev, false
	}
	if name, b, ok = scanName(b); !ok {
		return ev, false
	}
	if ev.Kind, ok = kindByName[string(name)]; !ok {
		return ev, false
	}

	if rest, has := skip(b, `,"dir":"`); has {
		if name, b, ok = scanName(rest); !ok || len(name) == 0 {
			return ev, false
		}
		if ev.Dir, ok = DirFromString(string(name)); !ok {
			return ev, false
		}
	}
	if rest, has := skip(b, `,"ctrl":true`); has {
		ev.Flags |= FlagCtrl
		b = rest
	}
	if rest, has := skip(b, `,"rtx":true`); has {
		ev.Flags |= FlagRTX
		b = rest
	}

	if b, ok = skip(b, `,"seq":`); !ok {
		return ev, false
	}
	if ev.Seq, b, ok = scanInt(b); !ok {
		return ev, false
	}
	if b, ok = skip(b, `,"aux":`); !ok {
		return ev, false
	}
	if ev.Aux, b, ok = scanInt(b); !ok {
		return ev, false
	}

	if rest, has := skip(b, `,"v":`); has {
		n := numberLen(rest)
		if n == 0 {
			return ev, false
		}
		// encoding/json hands a number literal to ParseFloat and rejects
		// the line when that fails (1e999); so does the generic route.
		v, err := strconv.ParseFloat(string(rest[:n]), 64)
		if err != nil {
			return ev, false
		}
		ev.V, b = v, rest[n:]
	}
	return ev, len(b) == 1 && b[0] == '}'
}

// skip returns b past lit when b starts with lit.
func skip(b []byte, lit string) ([]byte, bool) {
	if len(b) < len(lit) || string(b[:len(lit)]) != lit {
		return b, false
	}
	return b[len(lit):], true
}

// scanName returns the bytes up to the closing quote of a string value and
// b past that quote. Anything that is not a lowercase letter, digit or '-'
// — an escape, a space, a non-ASCII byte — is not a name the writer emits.
func scanName(b []byte) (name, rest []byte, ok bool) {
	for i, c := range b {
		switch {
		case c == '"':
			return b[:i], b[i+1:], true
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-':
		default:
			return nil, b, false
		}
	}
	return nil, b, false
}

// scanInt decodes an integer as strconv.AppendInt writes it: an optional
// '-', no leading zero, at most 18 digits (so it cannot overflow; a longer
// one is for the generic route to judge), and "-0" is not one.
func scanInt(b []byte) (v int64, rest []byte, ok bool) {
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		i = 1
	}
	start := i
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		v = v*10 + int64(b[i]-'0')
	}
	n := i - start
	if n == 0 || n > 18 || (b[start] == '0' && (n > 1 || neg)) {
		return 0, b, false
	}
	if neg {
		v = -v
	}
	return v, b[i:], true
}

// numberLen returns the length of the JSON number literal at the start of
// b (RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?), or 0 when b
// does not start with one. ParseFloat alone would also take hex floats,
// "inf" and underscores, which JSON does not.
func numberLen(b []byte) int {
	digits := func(i int) int {
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(i)
	default:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := digits(j)
		if k == j {
			return 0
		}
		i = k
	}
	return i
}
