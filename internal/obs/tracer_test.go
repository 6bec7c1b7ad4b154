package obs

import (
	"bytes"
	"slices"
	"testing"
	"time"
)

func ev(i int) Event {
	return Event{T: time.Duration(i) * time.Millisecond, Kind: KindSend, Dir: DirUp, Seq: int64(i), Aux: 1200}
}

func TestTracerUnbounded(t *testing.T) {
	tr := New(0)
	for i := 0; i < 1000; i++ {
		tr.Emit(ev(i))
	}
	if tr.Len() != 1000 || tr.Emitted() != 1000 || tr.Dropped() != 0 {
		t.Fatalf("len=%d emitted=%d dropped=%d, want 1000/1000/0", tr.Len(), tr.Emitted(), tr.Dropped())
	}
	evs := tr.Events()
	for i, e := range evs {
		if e.Seq != int64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
}

func TestTracerRingKeepsNewest(t *testing.T) {
	tr := New(16)
	for i := 0; i < 100; i++ {
		tr.Emit(ev(i))
	}
	if tr.Len() != 16 {
		t.Fatalf("ring len %d, want 16", tr.Len())
	}
	if tr.Emitted() != 100 || tr.Dropped() != 84 {
		t.Fatalf("emitted %d dropped %d, want 100/84", tr.Emitted(), tr.Dropped())
	}
	evs := tr.Events()
	for i, e := range evs {
		if want := int64(84 + i); e.Seq != want {
			t.Fatalf("ring event %d has seq %d, want %d (order broken across wrap)", i, e.Seq, want)
		}
	}
}

func TestTracerRingExactCapacity(t *testing.T) {
	tr := New(8)
	for i := 0; i < 8; i++ {
		tr.Emit(ev(i))
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d before the ring wrapped", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 8 || evs[0].Seq != 0 || evs[7].Seq != 7 {
		t.Fatalf("unexpected events %+v", evs)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(ev(1)) // must not panic
	if tr.Len() != 0 || tr.Emitted() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer should report empty state")
	}
}

// TestEmitZeroAlloc pins the hot-path contract: emitting into a nil
// (disabled) tracer and into a warm ring both allocate nothing.
func TestEmitZeroAlloc(t *testing.T) {
	var nilTr *Tracer
	if allocs := testing.AllocsPerRun(1000, func() {
		nilTr.Emit(Event{Kind: KindSend, Seq: 1, Aux: 1200})
	}); allocs != 0 {
		t.Errorf("nil tracer Emit allocates %.1f/op, want 0", allocs)
	}

	ring := New(256)
	if allocs := testing.AllocsPerRun(1000, func() {
		ring.Emit(Event{Kind: KindRecv, Seq: 2, Aux: 1200, V: 31.5})
	}); allocs != 0 {
		t.Errorf("ring tracer Emit allocates %.1f/op, want 0", allocs)
	}
}

// TestTracerChunks: an unbounded tracer keeps its events in chunks of
// chunkEvents that concatenate to Events() — at the chunk edges too — and
// WriteJSONL writes the chunks to the bytes it writes for the one slice.
func TestTracerChunks(t *testing.T) {
	for _, n := range []int{0, 1, chunkEvents - 1, chunkEvents, chunkEvents + 1, 3 * chunkEvents} {
		tr := New(0)
		for i := 0; i < n; i++ {
			tr.Emit(ev(i))
		}
		if tr.Len() != n || tr.Emitted() != int64(n) || tr.Dropped() != 0 {
			t.Fatalf("n=%d: len=%d emitted=%d dropped=%d", n, tr.Len(), tr.Emitted(), tr.Dropped())
		}
		chunks := tr.Chunks()
		if want := (n + chunkEvents - 1) / chunkEvents; len(chunks) != want {
			t.Fatalf("n=%d: %d chunks, want %d", n, len(chunks), want)
		}
		var joined []Event
		for i, c := range chunks {
			if i < len(chunks)-1 && len(c) != chunkEvents {
				t.Fatalf("n=%d: chunk %d holds %d events, want %d", n, i, len(c), chunkEvents)
			}
			joined = append(joined, c...)
		}
		evs := tr.Events()
		if !slices.Equal(joined, evs) || len(evs) != n {
			t.Fatalf("n=%d: chunks joined to %d events, Events() has %d", n, len(joined), len(evs))
		}
		for i, e := range evs {
			if e.Seq != int64(i) {
				t.Fatalf("n=%d: event %d has seq %d", n, i, e.Seq)
			}
		}
		meta := RunMeta{Label: "chunks", Run: 1, Duration: time.Second, Events: tr.Emitted()}
		var whole, chunked bytes.Buffer
		if err := WriteJSONL(&whole, meta, tr.Events()); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSONL(&chunked, meta, tr.Chunks()...); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(whole.Bytes(), chunked.Bytes()) {
			t.Fatalf("n=%d: WriteJSONL of the chunks differs from WriteJSONL of Events()", n)
		}
	}
}

// TestTracerRingChunks: a ring's chunks are its one or two segments, in
// emission order, and join to Events().
func TestTracerRingChunks(t *testing.T) {
	for _, n := range []int{0, 5, 8, 13, 16, 100} {
		tr := New(8)
		for i := 0; i < n; i++ {
			tr.Emit(ev(i))
		}
		var joined []Event
		for _, c := range tr.Chunks() {
			joined = append(joined, c...)
		}
		if evs := tr.Events(); !slices.Equal(joined, evs) || len(evs) != min(n, 8) {
			t.Fatalf("n=%d: ring chunks joined to %v, Events() %v", n, joined, evs)
		}
	}
}

// TestEmitUnboundedAllocations pins the unbounded tracer at one allocation
// per chunk: events are appended into place and a full chunk is never
// copied.
func TestEmitUnboundedAllocations(t *testing.T) {
	tr := New(0)
	i := 0
	perChunk := testing.AllocsPerRun(50, func() {
		for k := 0; k < chunkEvents; k++ {
			tr.Emit(ev(i))
			i++
		}
	})
	if perChunk > 1 {
		t.Errorf("Emit allocates %.2f times per %d events, want at most 1", perChunk, chunkEvents)
	}
}

func BenchmarkEmitDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Kind: KindSend, Seq: int64(i), Aux: 1200})
	}
}

func BenchmarkEmitRing(b *testing.B) {
	tr := New(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Kind: KindSend, Seq: int64(i), Aux: 1200})
	}
}

func BenchmarkEmitUnbounded(b *testing.B) {
	tr := New(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Kind: KindSend, Seq: int64(i), Aux: 1200})
	}
}
