package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"time"
)

// kindByName inverts Kind.String for every kind WriteJSONL emits. Built
// once, for KindFromString.
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

// readBlock is the size of the blocks ReadJSONL cuts its input into, and
// maxLine the longest line it reads: a line of maxLine bytes or more ends
// the input with bufio.ErrTooLong, bufio.Scanner's error at its cap.
const (
	readBlock = 64 << 10
	maxLine   = 16 << 20
)

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
//
// The input is read in blocks of about 64 KB cut at newlines, parsed on the
// available cores and stitched into runs in input order, so the result and
// the first error — with its line number — are those of reading the lines
// one after another.
func ReadJSONL(r io.Reader) ([]TraceRun, error) { return readJSONL(r, readBlock) }

// readJSONL is ReadJSONL reading block bytes at a time.
func readJSONL(r io.Reader, block int) ([]TraceRun, error) {
	src := &blockReader{r: r, block: block}
	var (
		runs   []TraceRun
		lineNo int // lines in the pieces consumed so far
	)
	// add appends a stretch of events to the current run; line is the line
	// number of the first, for the error when there is no run yet.
	add := func(events []Event, line int) error {
		if len(events) == 0 {
			return nil
		}
		if len(runs) == 0 {
			return fmt.Errorf("obs: trace line %d: event before any meta line", line)
		}
		cur := &runs[len(runs)-1]
		if cur.Events == nil {
			if n := cur.Meta.Events - cur.Meta.Dropped; n > 0 {
				cur.Events = make([]Event, 0, min(n, presizeCap))
			}
		}
		cur.Events = append(cur.Events, events...)
		return nil
	}
	consume := func(p *readPiece) error {
		at := 0
		for i := range p.marks {
			m := &p.marks[i]
			if err := add(p.events[at:m.at], lineNo+p.firstEvent); err != nil {
				return err
			}
			at = m.at
			switch {
			case m.err == nil:
				runs = append(runs, TraceRun{Meta: m.meta})
			case m.orphan && len(runs) == 0:
				return fmt.Errorf("obs: trace line %d: event before any meta line", lineNo+m.line)
			default:
				return fmt.Errorf("obs: trace line %d: %w", lineNo+m.line, m.err)
			}
		}
		if err := add(p.events[at:], lineNo+p.firstEvent); err != nil {
			return err
		}
		lineNo += p.lines
		if p.err != nil {
			return fmt.Errorf("obs: reading trace: %w", p.err)
		}
		return nil
	}
	if err := ordered(src.next, (*readPiece).parse, consume); err != nil {
		return nil, err
	}
	return runs, nil
}

// readPiece is one piece of a ReadJSONL job: whole lines of the input and
// what parsing them found.
type readPiece struct {
	in  []byte // the lines; the input's last may lack its newline
	err error  // the read error that ends the input after these lines

	lines      int // lines parsed, blank ones included
	events     []Event
	firstEvent int // line of events[0], counted from 1 within the piece
	// marks are the lines that are not events, in order; an error line is
	// the last thing parsed.
	marks []lineMark
}

// lineMark is a meta line or an error line of a piece.
type lineMark struct {
	at   int // len(events) when the line was read
	line int // counted from 1 within the piece
	meta RunMeta
	err  error // nil for a meta line
	// orphan marks an event line that failed to convert: ahead of every
	// meta line it is an event before any meta line instead.
	orphan bool
}

// parse reads the piece's lines, stopping at the first error line.
func (p *readPiece) parse() {
	p.lines, p.firstEvent = 0, 0
	p.events, p.marks = slices.Grow(p.events[:0], len(p.in)/64), p.marks[:0]
	for b := p.in; len(b) > 0; {
		line := b
		if i := bytes.IndexByte(b, '\n'); i >= 0 {
			line, b = b[:i], b[i+1:]
		} else {
			b = nil
		}
		p.lines++
		if n := len(line); n > 0 && line[n-1] == '\r' { // as bufio.ScanLines
			line = line[:n-1]
		}
		if len(line) == 0 {
			continue
		}
		ev, ok := scanEvent(line)
		if !ok {
			var ln jsonlLine
			if err := json.Unmarshal(line, &ln); err != nil {
				p.marks = append(p.marks, lineMark{at: len(p.events), line: p.lines, err: err})
				return
			}
			if ln.Kind == "meta" {
				p.marks = append(p.marks, lineMark{at: len(p.events), line: p.lines, meta: ln.meta()})
				continue
			}
			var err error
			if ev, err = ln.event(); err != nil {
				p.marks = append(p.marks, lineMark{at: len(p.events), line: p.lines, err: err, orphan: true})
				return
			}
		}
		if len(p.events) == 0 {
			p.firstEvent = p.lines
		}
		p.events = append(p.events, ev)
	}
}

// blockReader cuts a reader's bytes into pieces of whole lines.
type blockReader struct {
	r       io.Reader
	block   int
	carry   []byte // the start of the line the last piece stopped short of
	err     error  // what ended the input, io.EOF included
	empties int    // consecutive reads that returned nothing
	done    bool
}

// next fills p.in with the carried partial line and what follows it, up to
// the last newline of at least one read of block bytes; it reports false
// once the input is used up. The input's last line may lack its newline,
// and a line of maxLine bytes or more ends the input with
// bufio.ErrTooLong after the lines before it.
func (br *blockReader) next(p *readPiece) bool {
	if br.done {
		return false
	}
	p.err = nil
	buf := append(slices.Grow(p.in[:0], len(br.carry)+br.block), br.carry...)
	for scanned := 0; ; {
		if i := bytes.LastIndexByte(buf[scanned:], '\n'); i >= 0 {
			cut := scanned + i + 1
			br.carry = append(br.carry[:0], buf[cut:]...)
			p.in = buf[:cut]
			return true
		}
		scanned = len(buf)
		if br.err != nil {
			br.done = true
			if br.err != io.EOF {
				p.err = br.err
			}
			p.in = buf
			return len(buf) > 0 || p.err != nil
		}
		if len(buf) >= maxLine {
			br.done = true
			p.in, p.err = buf[:0], bufio.ErrTooLong
			return true
		}
		want := min(br.block, maxLine-len(buf))
		buf = slices.Grow(buf, want)
		n, err := br.r.Read(buf[len(buf) : len(buf)+want])
		buf = buf[:len(buf)+n]
		switch {
		case err != nil:
			br.err = err
		case n > 0:
			br.empties = 0
		default:
			if br.empties++; br.empties > 100 { // bufio.Scanner's patience
				br.err = io.ErrNoProgress
			}
		}
	}
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

// eventHeads maps each eventHead string back to the (kind, dir, flags) it
// was built from.
var eventHeads = func() map[string]Event {
	m := make(map[string]Event, numKinds*numDirs*4)
	for k := range eventHead {
		for d := range eventHead[k] {
			for f, head := range eventHead[k][d] {
				m[head] = Event{Kind: Kind(k), Dir: Dir(d), Flags: uint8(f)}
			}
		}
	}
	return m
}()

// seqKey ends every eventHead.
const seqKey = `,"seq":`

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

	// Everything up to seq's value is one of the eventHead strings. The
	// first seqKey ends it: no head holds one sooner.
	i := bytes.Index(b, []byte(seqKey))
	if i < 0 {
		return ev, false
	}
	if ev, ok = eventHeads[string(b[:i+len(seqKey)])]; !ok {
		return ev, false
	}
	ev.T = time.Duration(tus) * time.Microsecond
	b = b[i+len(seqKey):]

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
		if ev.V, ok = parseNumber(rest[:n]); !ok {
			return ev, false
		}
		b = rest[n:]
	}
	return ev, len(b) == 1 && b[0] == '}'
}

// pow10 holds the powers of ten a float64 represents exactly that
// parseNumber divides by.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// parseNumber decodes a JSON number literal as strconv.ParseFloat does. One
// of at most 15 digits and no exponent takes Clinger's exact path: its
// digits m and the power 10^f its point divides by are exact float64s
// (m < 2⁵³, f ≤ 15), so m/10^f is one correctly rounded division — the
// value ParseFloat returns. Any other literal goes to ParseFloat.
func parseNumber(lit []byte) (float64, bool) {
	body, neg := bytes.CutPrefix(lit, []byte("-"))
	var m uint64
	digits, point := 0, -1
	for _, c := range body {
		switch {
		case c == '.':
			point = digits
			continue
		case c < '0' || c > '9', digits == len(pow10)-1: // an exponent, or a 16th digit
			v, err := strconv.ParseFloat(string(lit), 64)
			return v, err == nil
		}
		m = m*10 + uint64(c-'0')
		digits++
	}
	f := 0
	if point >= 0 {
		f = digits - point
	}
	v := float64(m) / pow10[f]
	if neg {
		v = -v
	}
	return v, true
}

// skip returns b past lit when b starts with lit.
func skip(b []byte, lit string) ([]byte, bool) {
	if len(b) < len(lit) || string(b[:len(lit)]) != lit {
		return b, false
	}
	return b[len(lit):], true
}

// scanInt decodes an integer as strconv.AppendInt writes it: an optional
// '-', no leading zero, at most 19 digits and within int64's range (a
// longer or larger one is for the generic route to judge), and "-0" is not
// one.
func scanInt(b []byte) (v int64, rest []byte, ok bool) {
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		i = 1
	}
	start := i
	var u uint64 // 19 digits stay below 2⁶⁴
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		u = u*10 + uint64(b[i]-'0')
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	n := i - start
	if n == 0 || n > 19 || (b[start] == '0' && (n > 1 || neg)) || u > limit {
		return 0, b, false
	}
	if neg {
		return int64(-u), b[i:], true
	}
	return int64(u), b[i:], true
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
