package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// ProtoVersion is the wire protocol version. The hello/ready handshake
// pins it on both sides; a mismatch is a hard error, never a silent
// reinterpretation of run indices. Version 1 carried a shard's payload
// inline in the JSON line; version 2 frames it as raw bytes after the line;
// version 3 drops the beat and chunk_done messages, so a worker answers a
// grant with one shard per run and nothing else.
const ProtoVersion = 3

// Stream bounds. A header is a handful of small fields (the largest is a
// campaign spec or a run's error text); a payload is one traced run's
// exports, ≈120 MB for a 360 s flight. A peer that announces more than
// either is broken or hostile, and the stream is cut before any of it is
// buffered.
const (
	maxHeaderLine = 64 << 10
	maxPayload    = 1 << 30
)

// Message types. The protocol is deliberately tiny: one JSON object per
// line — the header — over any ordered byte stream (subprocess pipes here,
// TCP later); a header with a payload_len is followed by that many raw
// payload bytes, then the next header.
const (
	// MsgHello (coordinator → worker) opens a session: Proto pins the
	// protocol version and Spec carries the opaque campaign spec the
	// worker's Runner interprets.
	MsgHello = "hello"
	// MsgReady (worker → coordinator) acknowledges the hello.
	MsgReady = "ready"
	// MsgGrant (coordinator → worker) leases one chunk: runs
	// [Start, Start+Count) under chunk id Chunk.
	MsgGrant = "grant"
	// MsgShard (worker → coordinator) carries one run's result: Payload
	// on success, Err on a per-run failure. A shard is the only progress:
	// it extends the lease, and the chunk's last one commits it.
	MsgShard = "shard"
	// MsgShutdown (coordinator → worker) ends the session; the worker's
	// Serve loop returns cleanly.
	MsgShutdown = "shutdown"
)

// Msg is one protocol message. A single struct covers every type; unused
// fields stay at their zero values and are omitted from the wire.
type Msg struct {
	T string `json:"t"`

	// Hello/ready.
	Proto int             `json:"proto,omitempty"`
	Spec  json.RawMessage `json:"spec,omitempty"`

	// Chunk identification (grant, shard).
	Chunk int `json:"chunk,omitempty"`
	Start int `json:"start,omitempty"`
	Count int `json:"count,omitempty"`

	// Shard body. Payload travels as raw bytes after the header line, so
	// it is never escaped, scanned or copied on its way through; a decoded
	// message owns its Payload.
	Run     int    `json:"run,omitempty"`
	Payload []byte `json:"-"`
	Err     string `json:"err,omitempty"`
}

// frame is a message's header line: the message's fields plus the length of
// the payload that follows the line.
type frame struct {
	*Msg
	PayloadLen int `json:"payload_len,omitempty"`
}

// encoder writes framed messages. Writes are mutex-guarded so lifecycle
// paths (shutdown) may race the grant path safely.
type encoder struct {
	mu sync.Mutex
	w  *bufio.Writer
}

func newEncoder(w io.Writer) *encoder {
	return &encoder{w: bufio.NewWriter(w)}
}

// send writes one message — header line, then the payload as it is — and
// flushes. A message the peer's decoder would refuse is refused here, where
// the error names the cause.
func (e *encoder) send(m *Msg) error {
	if len(m.Payload) > maxPayload {
		return fmt.Errorf("dist: encoding %s: payload of %d bytes exceeds the %d-byte bound", m.T, len(m.Payload), maxPayload)
	}
	header, err := json.Marshal(frame{Msg: m, PayloadLen: len(m.Payload)})
	if err != nil {
		return fmt.Errorf("dist: encoding %s: %w", m.T, err)
	}
	if len(header) >= maxHeaderLine {
		return fmt.Errorf("dist: encoding %s: header of %d bytes exceeds the %d-byte bound", m.T, len(header), maxHeaderLine)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := e.w.Write(header); err != nil {
		return err
	}
	if err := e.w.WriteByte('\n'); err != nil {
		return err
	}
	if _, err := e.w.Write(m.Payload); err != nil {
		return err
	}
	return e.w.Flush()
}

// decoder reads framed messages. Its buffer is the header bound: a line
// that does not fit is refused, and a payload larger than the buffer is
// read straight into its own slice.
type decoder struct {
	r *bufio.Reader
}

func newDecoder(r io.Reader) *decoder {
	return &decoder{r: bufio.NewReaderSize(r, maxHeaderLine)}
}

// next reads one message. io.EOF reports a stream closed cleanly between
// messages; a truncated header or payload, an oversized header, a
// payload_len outside [0, maxPayload] or malformed JSON is an error.
func (d *decoder) next() (*Msg, error) {
	line, err := d.r.ReadSlice('\n')
	switch {
	case err == io.EOF && len(line) == 0:
		return nil, io.EOF
	case err == io.EOF:
		return nil, fmt.Errorf("dist: stream truncated mid-message")
	case err == bufio.ErrBufferFull:
		return nil, fmt.Errorf("dist: message header exceeds %d bytes", maxHeaderLine)
	case err != nil:
		return nil, err
	}
	f := frame{Msg: new(Msg)}
	if err := json.Unmarshal(line, &f); err != nil {
		return nil, fmt.Errorf("dist: malformed message: %w", err)
	}
	m := f.Msg
	if m.T == "" {
		return nil, fmt.Errorf("dist: message without a type")
	}
	if f.PayloadLen < 0 || f.PayloadLen > maxPayload {
		return nil, fmt.Errorf("dist: %s announces a payload of %d bytes, outside [0, %d]", m.T, f.PayloadLen, maxPayload)
	}
	if f.PayloadLen > 0 {
		m.Payload = make([]byte, f.PayloadLen)
		if _, err := io.ReadFull(d.r, m.Payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, fmt.Errorf("dist: stream truncated mid-payload")
			}
			return nil, err
		}
	}
	return m, nil
}
