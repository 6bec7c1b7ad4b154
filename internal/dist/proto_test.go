package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestProtoRoundTrip(t *testing.T) {
	msgs := []*Msg{
		{T: MsgHello, Proto: ProtoVersion, Spec: json.RawMessage(`{"scenario":"urban-gcc"}`)},
		{T: MsgReady, Proto: ProtoVersion},
		{T: MsgGrant, Chunk: 3, Start: 12, Count: 4},
		// A payload is opaque bytes: newlines, quotes and invalid UTF-8
		// travel as they are.
		{T: MsgShard, Chunk: 3, Run: 13, Payload: []byte("{\"v\":1.5}\n\x00\xff\n{\"t\":\"shutdown\"}\n")},
		{T: MsgShard, Chunk: 3, Run: 14, Err: "run 14 panicked: boom"},
		{T: MsgShutdown},
	}
	var buf bytes.Buffer
	enc := newEncoder(&buf)
	for _, m := range msgs {
		if err := enc.send(m); err != nil {
			t.Fatalf("send %s: %v", m.T, err)
		}
	}
	dec := newDecoder(&buf)
	for i, want := range msgs {
		got, err := dec.next()
		if err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("message %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := dec.next(); err != io.EOF {
		t.Fatalf("expected io.EOF after the last message, got %v", err)
	}
}

// TestProtoShardFrame pins the shard frame's bytes: one JSON header line with
// payload_len, then exactly that many raw bytes.
func TestProtoShardFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := newEncoder(&buf).send(&Msg{T: MsgShard, Chunk: 1, Run: 2, Payload: []byte("a\nb")}); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), `{"t":"shard","chunk":1,"run":2,"payload_len":3}`+"\na\nb"; got != want {
		t.Fatalf("frame = %q, want %q", got, want)
	}
}

func TestProtoLargePayload(t *testing.T) {
	// A traced run's shard runs to megabytes — far past the header bound,
	// which applies to the line only.
	big := bytes.Repeat([]byte("x\n"), 2<<20)
	var buf bytes.Buffer
	if err := newEncoder(&buf).send(&Msg{T: MsgShard, Run: 1, Payload: big}); err != nil {
		t.Fatalf("send: %v", err)
	}
	m, err := newDecoder(&buf).next()
	if err != nil {
		t.Fatalf("next: %v", err)
	}
	if !bytes.Equal(m.Payload, big) {
		t.Fatalf("payload of %d bytes came back as %d bytes", len(big), len(m.Payload))
	}
}

func TestProtoDecodeErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"truncated", `{"t":"beat"`, "truncated mid-message"},
		{"malformed", "not json at all\n", "malformed"},
		{"untyped", `{"chunk":1}` + "\n", "without a type"},
		{"null", "null\n", "without a type"},
		{"oversized header", `{"t":"shard","err":"` + strings.Repeat("x", maxHeaderLine) + `"}` + "\n", "header exceeds"},
		{"unterminated oversized header", strings.Repeat("x", 3*maxHeaderLine), "header exceeds"},
		{"negative payload_len", `{"t":"shard","payload_len":-1}` + "\n", "outside [0,"},
		{"payload_len past the bound", fmt.Sprintf(`{"t":"shard","payload_len":%d}`, maxPayload+1) + "\n", "outside [0,"},
		{"payload_len overflows int", `{"t":"shard","payload_len":99999999999999999999}` + "\n", "malformed"},
		{"short payload", `{"t":"shard","payload_len":10}` + "\nabc", "truncated mid-payload"},
		{"missing payload", `{"t":"shard","payload_len":10}` + "\n", "truncated mid-payload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := newDecoder(strings.NewReader(tc.in)).next()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestProtoEncodeBounds: the encoder refuses what the peer's decoder would,
// so the failure is reported where its cause is.
func TestProtoEncodeBounds(t *testing.T) {
	var buf bytes.Buffer
	err := newEncoder(&buf).send(&Msg{T: MsgShard, Err: strings.Repeat("x", maxHeaderLine)})
	if err == nil || !strings.Contains(err.Error(), "header") || buf.Len() != 0 {
		t.Fatalf("oversized header: err %v, %d bytes written", err, buf.Len())
	}
}

// FuzzDecoder: arbitrary bytes never panic the decoder, an accepted
// payload is within the bound, and whatever it accepts re-encodes to a frame
// that decodes to the same message and encodes to the same bytes again.
func FuzzDecoder(f *testing.F) {
	f.Add([]byte(`{"t":"hello","proto":3,"spec":{"scenario":"urban-gcc"}}` + "\n"))
	f.Add([]byte(`{"t":"shard","chunk":1,"run":2,"payload_len":3}` + "\na\nb" + `{"t":"chunk_done","chunk":1}` + "\n"))
	f.Add([]byte(`{"t":"shard","run":1,"payload":{"registry":{}}}` + "\n")) // a v1 shard
	f.Add([]byte(`{"t":"shard","payload_len":-1}` + "\n"))
	f.Add([]byte(`{"t":"shard","payload_len":1073741825}` + "\n"))
	f.Add([]byte(`{"t":"shard","payload_len":4}` + "\nab"))
	f.Add([]byte(`{"t":"beat","payload_len":2,"payload_len":1}` + "\nxy"))
	f.Add([]byte("null\n{}\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		dec := newDecoder(bytes.NewReader(in))
		for {
			m, err := dec.next()
			if err != nil {
				return
			}
			if len(m.Payload) > maxPayload || len(m.Payload) > len(in) {
				t.Fatalf("accepted a %d-byte payload from %d bytes of input", len(m.Payload), len(in))
			}
			var once, twice bytes.Buffer
			if err := newEncoder(&once).send(m); err != nil {
				t.Fatalf("re-encoding an accepted message: %v", err)
			}
			back, err := newDecoder(bytes.NewReader(once.Bytes())).next()
			if err != nil {
				t.Fatalf("decoding a re-encoded message: %v\n%q", err, once.Bytes())
			}
			if !bytes.Equal(back.Payload, m.Payload) {
				t.Fatalf("payload changed across a re-encode")
			}
			if err := newEncoder(&twice).send(back); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(once.Bytes(), twice.Bytes()) {
				t.Fatalf("re-encode is not stable:\n%q\n%q", once.Bytes(), twice.Bytes())
			}
		}
	})
}

// BenchmarkShardRoundTrip: one 512 KiB shard — a traced 8 s run — through
// encoder, pipe and decoder, the path every run of a sharded campaign takes.
func BenchmarkShardRoundTrip(b *testing.B) {
	payload := bytes.Repeat([]byte(`{"t_us":4107,"kind":"send","dir":"up","seq":1,"aux":1181}`+"\n"), 512<<10/58)
	r, w := io.Pipe()
	enc, dec := newEncoder(w), newDecoder(r)
	errc := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < b.N && err == nil; i++ {
			err = enc.send(&Msg{T: MsgShard, Chunk: 1, Run: i, Payload: payload})
		}
		w.CloseWithError(err)
		errc <- err
	}()
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := dec.next()
		if err != nil {
			b.Fatal(err)
		}
		if len(m.Payload) != len(payload) {
			b.Fatalf("payload of %d bytes, want %d", len(m.Payload), len(payload))
		}
	}
	b.StopTimer()
	if err := <-errc; err != nil {
		b.Fatal(err)
	}
}

// driveWorker runs Serve over in-memory pipes and returns the
// coordinator-side encoder/decoder plus the Serve exit channel.
func driveWorker(t *testing.T, runner Runner) (*encoder, *decoder, chan error) {
	t.Helper()
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := Serve(inR, outW, runner)
		outW.Close()
		done <- err
	}()
	t.Cleanup(func() {
		inW.Close()
		outR.Close()
	})
	return newEncoder(inW), newDecoder(outR), done
}

func TestServeExecutesGrant(t *testing.T) {
	runner := RunnerFunc(func(spec json.RawMessage, run int) ([]byte, error) {
		if run == 6 {
			return nil, fmt.Errorf("run %d refused", run)
		}
		if run == 7 {
			panic("kaboom")
		}
		return []byte(fmt.Sprintf(`{"spec":%s,"run":%d}`, spec, run)), nil
	})
	enc, dec, done := driveWorker(t, runner)

	if err := enc.send(&Msg{T: MsgHello, Proto: ProtoVersion, Spec: json.RawMessage(`"s"`)}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if m, err := dec.next(); err != nil || m.T != MsgReady {
		t.Fatalf("expected ready, got %v / %v", m, err)
	}
	if err := enc.send(&Msg{T: MsgGrant, Chunk: 2, Start: 5, Count: 3}); err != nil {
		t.Fatalf("grant: %v", err)
	}

	// A grant's whole answer is one shard per run, in run order.
	var shards []*Msg
	for i := 0; i < 3; i++ {
		m, err := dec.next()
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		if m.T != MsgShard || m.Chunk != 2 || m.Run != 5+i {
			t.Fatalf("message %d = %+v, want the shard of chunk 2 run %d", i, m, 5+i)
		}
		shards = append(shards, m)
	}
	if string(shards[0].Payload) != `{"spec":"s","run":5}` {
		t.Fatalf("run 5 payload: %s", shards[0].Payload)
	}
	if shards[1].Err == "" || !strings.Contains(shards[1].Err, "refused") {
		t.Fatalf("run 6 should be an error shard, got %+v", shards[1])
	}
	if shards[2].Err == "" || !strings.Contains(shards[2].Err, "panicked: kaboom") {
		t.Fatalf("run 7 panic should be an error shard, got %+v", shards[2])
	}

	if err := enc.send(&Msg{T: MsgShutdown}); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if m, err := dec.next(); err != io.EOF {
		t.Fatalf("worker sent %+v after its shards, want nothing (err %v)", m, err)
	}
}

func TestServeRejectsVersionMismatch(t *testing.T) {
	enc, _, done := driveWorker(t, RunnerFunc(func(json.RawMessage, int) ([]byte, error) { return nil, nil }))
	if err := enc.send(&Msg{T: MsgHello, Proto: ProtoVersion + 1}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	err := <-done
	if err == nil || !strings.Contains(err.Error(), "version mismatch") {
		t.Fatalf("got %v, want version mismatch", err)
	}
}

// TestServeRefusesV2Coordinator: a v2 coordinator's hello, byte for byte as
// that version wrote it, is refused with both versions in the error before
// any grant is read.
func TestServeRefusesV2Coordinator(t *testing.T) {
	v2 := `{"t":"hello","proto":2,"spec":{"scenario":"urban-gcc"}}` + "\n" +
		`{"t":"grant","chunk":0,"start":0,"count":1}` + "\n"
	var out bytes.Buffer
	err := Serve(strings.NewReader(v2), &out, RunnerFunc(func(json.RawMessage, int) ([]byte, error) {
		t.Error("a run executed under a mismatched protocol")
		return nil, nil
	}))
	if err == nil || !strings.Contains(err.Error(), "version mismatch: coordinator 2, worker 3") {
		t.Fatalf("got %v, want a version mismatch naming 2 and 3", err)
	}
	if out.Len() != 0 {
		t.Fatalf("worker answered a v2 hello: %q", out.Bytes())
	}
}

// v2Worker is a peer that answers as a version 2 worker did: ready with
// proto 2, then a beat, a framed shard, a progress beat and chunk_done.
type v2Worker struct {
	dec *decoder
}

func (p *v2Worker) Send(*Msg) error     { return nil }
func (p *v2Worker) Recv() (*Msg, error) { return p.dec.next() }
func (p *v2Worker) Kill() error         { return nil }
func (p *v2Worker) Close() error        { return nil }
func (p *v2Worker) String() string      { return "v2" }

// TestCoordinatorRefusesV2Worker: the handshake, not a shard that happens to
// parse, is what stops a v2 worker.
func TestCoordinatorRefusesV2Worker(t *testing.T) {
	stream := `{"t":"ready","proto":2}` + "\n" +
		`{"t":"beat","chunk":0}` + "\n" +
		`{"t":"shard","chunk":0,"run":0,"payload_len":2}` + "\n{}" +
		`{"t":"beat","chunk":0,"done":1}` + "\n" +
		`{"t":"chunk_done","chunk":0}` + "\n"
	var lost []string
	out, err := Run(json.RawMessage(`{}`), Config{Runs: 1, Events: func(e Event) {
		if e.Kind == EvWorkerLost {
			lost = append(lost, e.Err)
		}
	}}, []Peer{&v2Worker{dec: newDecoder(strings.NewReader(stream))}})
	if err == nil {
		t.Fatal("a campaign over a v2 worker succeeded")
	}
	if len(lost) != 1 || !strings.Contains(lost[0], "version mismatch: worker 2, coordinator 3") {
		t.Fatalf("worker-lost reasons = %q, want one version mismatch naming 2 and 3", lost)
	}
	if out.Shards[0] != nil || out.RunErrs[0] == nil {
		t.Fatalf("run 0 must be failed, not folded: shard %q, err %v", out.Shards[0], out.RunErrs[0])
	}
}
