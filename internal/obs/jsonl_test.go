package obs

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestWriteJSONLStableBytes(t *testing.T) {
	meta := RunMeta{Label: "urban-P1-grd-gcc", Run: 2, Seed: 42, Duration: 8 * time.Second, Events: 3, Dropped: 0}
	events := []Event{
		{T: 1500 * time.Microsecond, Kind: KindSend, Dir: DirUp, Seq: 0, Aux: 1200},
		{T: 33 * time.Millisecond, Kind: KindRecv, Dir: DirUp, Seq: 0, Aux: 1200, V: 31.5},
		{T: 40 * time.Millisecond, Kind: KindSend, Dir: DirUp, Flags: FlagCtrl, Seq: 1, Aux: 60},
	}
	want := strings.Join([]string{
		`{"kind":"meta","label":"urban-P1-grd-gcc","run":2,"seed":42,"duration_us":8000000,"events":3,"dropped":0}`,
		`{"t_us":1500,"kind":"send","dir":"up","seq":0,"aux":1200}`,
		`{"t_us":33000,"kind":"recv","dir":"up","seq":0,"aux":1200,"v":31.5}`,
		`{"t_us":40000,"kind":"send","dir":"up","ctrl":true,"seq":1,"aux":60}`,
	}, "\n") + "\n"

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, meta, events); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if got := buf.String(); got != want {
		t.Errorf("JSONL mismatch:\ngot:\n%swant:\n%s", got, want)
	}

	// Rendering the same inputs twice must be byte-identical.
	var buf2 bytes.Buffer
	if err := WriteJSONL(&buf2, meta, events); err != nil {
		t.Fatalf("WriteJSONL (second): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two renderings of the same trace differ")
	}
}

func TestEventKindAndDirStrings(t *testing.T) {
	kinds := map[Kind]string{
		KindSend: "send", KindRecv: "recv", KindDrop: "drop",
		KindOutageStart: "outage-start", KindOutageEnd: "outage-end",
		KindHandover: "handover", KindRLF: "rlf", KindCC: "cc",
		KindFramePlay: "frame-play", KindFrameSkip: "frame-skip", KindStall: "stall",
		Kind(250): "unknown",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	dirs := map[Dir]string{DirNone: "", DirUp: "up", DirDown: "down", DirUp2: "up2"}
	for d, want := range dirs {
		if got := d.String(); got != want {
			t.Errorf("Dir(%d).String() = %q, want %q", d, got, want)
		}
	}
}

// appendEventJSONOracle is appendEventJSON as it stood before the head
// table and the millionths path: every key written in turn, V through
// strconv. The shipped writer must produce its bytes for every event JSONL
// can carry.
func appendEventJSONOracle(buf []byte, ev *Event) []byte {
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

// FuzzAppendEventJSON: for every event JSONL can carry the shipped writer
// writes the oracle's bytes and scanEvent reads the event back exactly
// (its time at the writer's microsecond granularity); for any other it
// refuses.
func FuzzAppendEventJSON(f *testing.F) {
	add := func(v float64) {
		f.Add(int64(33000), uint8(KindRecv), uint8(DirUp), uint8(0), int64(7), int64(1200), v)
	}
	for _, v := range []float64{
		0, 1e-4, math.Nextafter(1e-4, 0), math.Nextafter(1e-4, 1), 0.000123, 31.5, 37.25,
		999999.999999, math.Nextafter(1e6, 0), 1e6, 999999999999.0 / 1e6, 1e12 / 1e6,
		9007199254.740992, 9007199254.740993, float64(1<<53) / 1e6, math.Nextafter(float64(1<<53)/1e6, 0),
		-1e-4, -31.5, -999999.999999, -0.5, math.Copysign(0, -1),
		5e-324, -5e-324, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308,
		0.1 + 0.2, 1.0 / 3, 0.97342, 2.5e6, 1e21, 123456.7890123, 0.0001000001,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		add(v)
	}
	f.Add(int64(-1), uint8(KindCellOverloadEnd), uint8(DirUp2), uint8(3), int64(math.MinInt64), int64(math.MaxInt64), 0.5)
	f.Add(int64(1), uint8(numKinds), uint8(DirNone), uint8(0), int64(0), int64(0), 0.0)
	f.Add(int64(1), uint8(KindSend), uint8(numDirs), uint8(0xff), int64(0), int64(0), 0.0)
	f.Fuzz(func(t *testing.T, tus int64, kind, dir, flags uint8, seq, aux int64, v float64) {
		ev := Event{T: time.Duration(tus) * time.Microsecond, Kind: Kind(kind), Dir: Dir(dir), Flags: flags, Seq: seq, Aux: aux, V: v}
		checkEventLine(t, ev)
		// Random bits are seldom a whole number of millionths; a one-way
		// delay always is.
		ev.V = float64(seq%1e12) / 1e6
		checkEventLine(t, ev)
	})
}

// checkEventLine holds appendEventJSON to its oracle and scanEvent to its
// inverse for one event.
func checkEventLine(t *testing.T, ev Event) {
	t.Helper()
	got, ok := appendEventJSON(nil, &ev)
	carries := int(ev.Kind) < numKinds && int(ev.Dir) < numDirs && !math.IsNaN(ev.V) && !math.IsInf(ev.V, 0)
	if ok != carries {
		t.Fatalf("%+v: ok = %v, want %v", ev, ok, carries)
	}
	if !ok {
		return
	}
	if want := appendEventJSONOracle(nil, &ev); !bytes.Equal(got, want) {
		t.Fatalf("%+v:\n got %s\nwant %s", ev, got, want)
	}
	back, ok := scanEvent(bytes.TrimSuffix(got, []byte("\n")))
	if !ok {
		t.Fatalf("scanEvent refuses %s", got)
	}
	want := ev
	want.T = time.Duration(ev.T.Microseconds()) * time.Microsecond
	want.Flags &= FlagCtrl | FlagRTX
	if want.V == 0 {
		want.V = 0 // a -0 is not written
	}
	if math.Float64bits(back.V) != math.Float64bits(want.V) {
		t.Fatalf("%s: V came back as %v (bits %x), want %v (bits %x)", got, back.V, math.Float64bits(back.V), want.V, math.Float64bits(want.V))
	}
	if back != want {
		t.Fatalf("%s: came back as %+v, want %+v", got, back, want)
	}
}

// writeBadEvent writes run 4's three events, the last of which is bad, and
// returns the error — through WriteJSONL and WriteJSONLRuns, which must
// agree on it and on the lines written before it.
func writeBadEvent(t *testing.T, bad Event) error {
	t.Helper()
	meta := RunMeta{Label: "x", Run: 4, Duration: time.Second, Events: 3}
	events := []Event{{Kind: KindSend, Dir: DirUp, Seq: 1}, {Kind: KindRecv, Dir: DirUp, Seq: 1, V: 2.5}, bad}
	var single, multi bytes.Buffer
	err := WriteJSONL(&single, meta, events[:1], events[1:])
	if err == nil {
		t.Fatalf("WriteJSONL wrote %+v without an error", bad)
	}
	errRuns := WriteJSONLRuns(&multi, []TraceSection{{Meta: meta, Chunks: [][]Event{events}}})
	if errRuns == nil || errRuns.Error() != err.Error() {
		t.Fatalf("WriteJSONLRuns: %v, WriteJSONL: %v", errRuns, err)
	}
	if n := bytes.Count(multi.Bytes(), []byte("\n")); n != 3 {
		t.Errorf("WriteJSONLRuns wrote %d lines before the bad event, want 3:\n%s", n, multi.Bytes())
	}
	return err
}

func TestWriteJSONLRejectsNonFiniteV(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := writeBadEvent(t, Event{Kind: KindRecv, Dir: DirUp, V: v})
		if want := fmt.Sprintf("obs: run 4 event 2: v %v is not a JSON number", v); err.Error() != want {
			t.Errorf("err = %q, want %q", err, want)
		}
	}
}

func TestWriteJSONLRejectsUnknownKind(t *testing.T) {
	err := writeBadEvent(t, Event{Kind: Kind(numKinds), Dir: DirUp})
	if want := fmt.Sprintf("obs: run 4 event 2: kind %d has no JSONL name", numKinds); err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
}

func TestWriteJSONLRejectsUnknownDir(t *testing.T) {
	err := writeBadEvent(t, Event{Kind: KindSend, Dir: Dir(numDirs)})
	if want := fmt.Sprintf("obs: run 4 event 2: dir %d has no JSONL name", numDirs); err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
}
