package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// readJSONLOracle is ReadJSONL as it stood before the event scanner: every
// line through encoding/json, the kind found by walking Kind.String. It is
// the reference the shipped reader must agree with on any input.
func readJSONLOracle(r io.Reader) ([]TraceRun, error) {
	// Named as the shipped struct is: encoding/json puts the type's name in
	// its error text, which the differential tests compare.
	type jsonlLine struct {
		Kind string `json:"kind"`

		Label      string `json:"label"`
		Run        int    `json:"run"`
		Seed       int64  `json:"seed"`
		DurationUs int64  `json:"duration_us"`
		Events     int64  `json:"events"`
		Dropped    int64  `json:"dropped"`

		TUs  int64   `json:"t_us"`
		Dir  string  `json:"dir"`
		Ctrl bool    `json:"ctrl"`
		Rtx  bool    `json:"rtx"`
		Seq  int64   `json:"seq"`
		Aux  int64   `json:"aux"`
		V    float64 `json:"v"`
	}
	kindFromString := func(s string) (Kind, bool) {
		for k := KindSend; k <= KindCellOverloadEnd; k++ {
			if k.String() == s {
				return k, true
			}
		}
		return 0, false
	}
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
		var ln jsonlLine
		if err := json.Unmarshal(raw, &ln); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		if ln.Kind == "meta" {
			runs = append(runs, TraceRun{Meta: RunMeta{
				Label:    ln.Label,
				Run:      ln.Run,
				Seed:     ln.Seed,
				Duration: time.Duration(ln.DurationUs) * time.Microsecond,
				Events:   ln.Events,
				Dropped:  ln.Dropped,
			}})
			continue
		}
		if len(runs) == 0 {
			return nil, fmt.Errorf("obs: trace line %d: event before any meta line", lineNo)
		}
		kind, ok := kindFromString(ln.Kind)
		if !ok {
			return nil, fmt.Errorf("obs: trace line %d: unknown kind %q", lineNo, ln.Kind)
		}
		dir, ok := DirFromString(ln.Dir)
		if !ok {
			return nil, fmt.Errorf("obs: trace line %d: unknown dir %q", lineNo, ln.Dir)
		}
		var flags uint8
		if ln.Ctrl {
			flags |= FlagCtrl
		}
		if ln.Rtx {
			flags |= FlagRTX
		}
		cur := &runs[len(runs)-1]
		cur.Events = append(cur.Events, Event{
			T:     time.Duration(ln.TUs) * time.Microsecond,
			Kind:  kind,
			Dir:   dir,
			Flags: flags,
			Seq:   ln.Seq,
			Aux:   ln.Aux,
			V:     ln.V,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return runs, nil
}

const oracleMeta = `{"kind":"meta","label":"x","run":0,"seed":0,"duration_us":1,"events":3,"dropped":0}` + "\n"

// readerCase is one event line, read after oracleMeta unless bare.
type readerCase struct {
	name, line string
	bare       bool // no meta line in front
	fast       bool // scanEvent accepts the line
}

// readerCases are the canonical forms the scanner takes, and near-misses one
// byte away from them that it must hand to the generic route.
var readerCases = []readerCase{
	{name: "canonical minimal", line: `{"t_us":1,"kind":"send","seq":0,"aux":0}`, fast: true},
	{name: "canonical full", line: `{"t_us":33000,"kind":"recv","dir":"up2","ctrl":true,"rtx":true,"seq":-7,"aux":1200,"v":31.5}`, fast: true},
	{name: "canonical exponent v", line: `{"t_us":5,"kind":"cc","seq":0,"aux":3,"v":2.5e+06}`, fast: true},
	{name: "canonical 18-digit int", line: `{"t_us":1,"kind":"send","seq":999999999999999999,"aux":-999999999999999999}`, fast: true},
	{name: "seq exponent", line: `{"t_us":1,"kind":"send","seq":1e3,"aux":0}`},
	{name: "seq minus zero", line: `{"t_us":1,"kind":"send","seq":-0,"aux":0}`},
	{name: "leading zero", line: `{"t_us":01,"kind":"send","seq":0,"aux":0}`},
	{name: "19-digit int", line: `{"t_us":1,"kind":"send","seq":1234567890123456789,"aux":0}`},
	{name: "int64 overflow", line: `{"t_us":1,"kind":"send","seq":9223372036854775808,"aux":0}`},
	{name: "hex float v", line: `{"t_us":1,"kind":"recv","seq":0,"aux":0,"v":0x1p-2}`},
	{name: "inf v", line: `{"t_us":1,"kind":"recv","seq":0,"aux":0,"v":inf}`},
	{name: "underscore v", line: `{"t_us":1,"kind":"recv","seq":0,"aux":0,"v":1_0}`},
	{name: "v out of range", line: `{"t_us":1,"kind":"recv","seq":0,"aux":0,"v":1e999}`},
	{name: "v bare dot", line: `{"t_us":1,"kind":"recv","seq":0,"aux":0,"v":1.}`},
	{name: "v string", line: `{"t_us":1,"kind":"recv","seq":0,"aux":0,"v":"1"}`},
	{name: "duplicate key", line: `{"t_us":1,"kind":"send","seq":0,"seq":4,"aux":0}`},
	{name: "ctrl false", line: `{"t_us":1,"kind":"send","ctrl":false,"seq":0,"aux":0}`},
	{name: "reordered keys", line: `{"kind":"send","t_us":1,"seq":0,"aux":0}`},
	{name: "unknown key", line: `{"t_us":1,"kind":"send","seq":0,"aux":0,"extra":[1,{"a":2}]}`},
	{name: "missing aux", line: `{"t_us":1,"kind":"send","seq":0}`},
	{name: "inner space", line: `{"t_us": 1,"kind":"send","seq":0,"aux":0}`},
	{name: "trailing space", line: `{"t_us":1,"kind":"send","seq":0,"aux":0} `},
	{name: "trailing garbage", line: `{"t_us":1,"kind":"send","seq":0,"aux":0}}`},
	{name: "escaped kind", line: `{"t_us":1,"kind":"sen\u0064","seq":0,"aux":0}`},
	{name: "empty dir", line: `{"t_us":1,"kind":"send","dir":"","seq":0,"aux":0}`},
	{name: "unknown kind", line: `{"t_us":1,"kind":"warp","seq":0,"aux":0}`},
	{name: "fallback kind string", line: `{"t_us":1,"kind":"unknown","seq":0,"aux":0}`},
	{name: "unknown dir", line: `{"t_us":1,"kind":"send","dir":"sideways","seq":0,"aux":0}`},
	{name: "truncated", line: `{"t_us":1,"kind":"send","seq":0,"aux":0`},
	{name: "CRLF", line: `{"t_us":1,"kind":"send","seq":0,"aux":0}` + "\r"}, // the line splitter drops the CR before either route sees it
	{name: "event before meta", line: `{"t_us":1,"kind":"send","seq":0,"aux":0}`, bare: true, fast: true},
	{name: "unknown kind before meta", line: `{"t_us":1,"kind":"warp","seq":0,"aux":0}`, bare: true}, // "before any meta" wins
	{name: "empty object before meta", line: `{}`, bare: true},
	{name: "meta line", line: strings.TrimSuffix(oracleMeta, "\n")},
}

func (c *readerCase) input() string {
	if c.bare {
		return c.line + "\n"
	}
	return oracleMeta + c.line + "\n"
}

// TestReadJSONLRoutes: every canonical form takes the scanner, every
// near-miss falls through to the generic route, and either way the result —
// runs or error text — is the oracle's.
func TestReadJSONLRoutes(t *testing.T) {
	for i := range readerCases {
		tc := &readerCases[i]
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := scanEvent([]byte(tc.line)); ok != tc.fast {
				t.Errorf("scanEvent ok = %v, want %v", ok, tc.fast)
			}
			got, gotErr := ReadJSONL(strings.NewReader(tc.input()))
			want, wantErr := readJSONLOracle(strings.NewReader(tc.input()))
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("error differs:\n got %v\nwant %v", gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("result differs:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// FuzzReadJSONL: on arbitrary bytes the shipped reader and the
// encoding/json-only oracle agree on the runs and on whether it is an error.
func FuzzReadJSONL(f *testing.F) {
	for i := range readerCases {
		f.Add([]byte(readerCases[i].input()))
	}
	f.Add([]byte(oracleMeta + `{"t_us":1,"kind":"send","seq":0,"aux":0}` + "\r\n\r\n" + oracleMeta))
	f.Fuzz(func(t *testing.T, in []byte) {
		got, gotErr := ReadJSONL(bytes.NewReader(in))
		want, wantErr := readJSONLOracle(bytes.NewReader(in))
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("error differs: got %v, oracle %v", gotErr, wantErr)
		}
		if gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("error text differs:\n got %v\nwant %v", gotErr, wantErr)
		}
		if !sameRuns(got, want) {
			t.Fatalf("result differs:\n got %+v\nwant %+v", got, want)
		}
	})
}

// sameRuns compares run lists with V by bit pattern, so a NaN or a signed
// zero cannot hide a disagreement the way == would.
func sameRuns(a, b []TraceRun) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Meta != b[i].Meta || len(a[i].Events) != len(b[i].Events) {
			return false
		}
		for j, x := range a[i].Events {
			y := b[i].Events[j]
			if math.Float64bits(x.V) != math.Float64bits(y.V) {
				return false
			}
			x.V, y.V = 0, 0
			if x != y {
				return false
			}
		}
	}
	return true
}

// goldenTrace is a recorded repair-blackout run: the golden the experiments
// package pins, so the benchmarks read and write real traffic.
func goldenTrace(tb testing.TB) []byte {
	tb.Helper()
	raw, err := os.ReadFile("../experiments/testdata/golden/repair-blackout.jsonl")
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestReadJSONLGoldenAllCanonical: every event line of a recorded trace
// takes the scanner, the result is the oracle's, and writing it back gives
// the file's bytes.
func TestReadJSONLGoldenAllCanonical(t *testing.T) {
	raw := goldenTrace(t)
	for i, line := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
		if _, ok := scanEvent(line); ok == bytes.HasPrefix(line, []byte(`{"kind":"meta"`)) {
			t.Fatalf("line %d: scanEvent ok = %v: %s", i+1, ok, line)
		}
	}
	got, err := ReadJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want, err := readJSONLOracle(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("shipped reader and oracle disagree on the golden trace")
	}
	var back bytes.Buffer
	for _, r := range got {
		if err := WriteJSONL(&back, r.Meta, r.Events); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(back.Bytes(), raw) {
		t.Error("WriteJSONL(ReadJSONL(golden)) differs from the golden bytes")
	}
}

// TestReadJSONLPresize: the meta line's events − dropped sizes the run's
// slice exactly, and a meta that lies cannot reserve more than presizeCap.
func TestReadJSONLPresize(t *testing.T) {
	raw := goldenTrace(t)
	runs, err := ReadJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(runs[0].Events); cap(runs[0].Events) != n || int64(n) != runs[0].Meta.Events {
		t.Errorf("len %d cap %d, meta says %d events", n, cap(runs[0].Events), runs[0].Meta.Events)
	}
	hostile := `{"kind":"meta","label":"x","run":0,"seed":0,"duration_us":1,"events":9223372036854775807,"dropped":-5}` + "\n"
	runs, err = ReadJSONL(strings.NewReader(hostile + `{"t_us":1,"kind":"send","seq":0,"aux":0}` + "\n" + hostile))
	if err != nil {
		t.Fatal(err)
	}
	if c := cap(runs[0].Events); c > presizeCap {
		t.Errorf("a hostile meta reserved %d events, bound is %d", c, presizeCap)
	}
	if runs[1].Events != nil {
		t.Error("a run with no event lines must keep a nil slice")
	}
}

// TestScanEventAllocs pins the scanner at zero allocations per line, for
// every shape of canonical line.
func TestScanEventAllocs(t *testing.T) {
	var lines [][]byte
	for i := range readerCases {
		if readerCases[i].fast {
			lines = append(lines, []byte(readerCases[i].line))
		}
	}
	lines = append(lines, []byte(`{"t_us":7999211,"kind":"repair-abandoned","dir":"down","seq":65535,"aux":3,"v":-1.2345678901234567e-308}`))
	allocs := testing.AllocsPerRun(100, func() {
		for _, l := range lines {
			if _, ok := scanEvent(l); !ok {
				t.Fatalf("not canonical: %s", l)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("scanEvent allocates %.1f times per %d lines, want 0", allocs, len(lines))
	}
}

// TestJSONLLabelRoundTrip: a label with a control byte, a quote and a
// non-ASCII rune must come back unchanged. strconv.AppendQuote wrote the
// DEL as \x7f, which is not JSON, and ReadJSONL rejected the trace.
func TestJSONLLabelRoundTrip(t *testing.T) {
	for _, label := range []string{"a\x7f\"bé", "tab\there\\", "\x00\x1f", "urban-P1-air-gcc"} {
		meta := RunMeta{Label: label, Duration: time.Second}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, meta, nil); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(bytes.TrimSpace(buf.Bytes())) {
			t.Errorf("label %q: meta line is not JSON: %s", label, buf.Bytes())
		}
		runs, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("label %q: %v", label, err)
		}
		if len(runs) != 1 || runs[0].Meta != meta {
			t.Errorf("label %q came back as %+v", label, runs)
		}
	}
	// Invalid UTF-8 has no JSON spelling; it must still write a readable
	// trace, with U+FFFD where the byte was.
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, RunMeta{Label: "a\xffb"}, nil); err != nil {
		t.Fatal(err)
	}
	runs, err := ReadJSONL(&buf)
	if err != nil || len(runs) != 1 || runs[0].Meta.Label != "a�b" {
		t.Errorf("invalid UTF-8 label: runs %+v, err %v", runs, err)
	}
}

func BenchmarkReadJSONL(b *testing.B) {
	raw := goldenTrace(b)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadJSONL(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadJSONLOracle is the same read through encoding/json alone:
// the figure the scanner is measured against.
func BenchmarkReadJSONLOracle(b *testing.B) {
	raw := goldenTrace(b)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := readJSONLOracle(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteJSONL(b *testing.B) {
	raw := goldenTrace(b)
	runs, err := ReadJSONL(bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Grow(len(raw))
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteJSONL(&buf, runs[0].Meta, runs[0].Events); err != nil {
			b.Fatal(err)
		}
	}
}
