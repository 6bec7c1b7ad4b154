package dist

import (
	"encoding/json"
	"fmt"
	"io"
)

// Serve runs the worker side of the protocol over a byte stream: handshake,
// then a grant-execute-stream loop until shutdown or EOF. Each granted run
// executes through the Runner with panic recovery — a failing run becomes
// an error shard, not a dead worker — and every completed run is streamed
// immediately as the grant's only answer: the coordinator extends the lease
// shard by shard and commits the chunk on its last one.
//
// Serve returns nil on a clean shutdown (MsgShutdown or EOF) and an error
// on a protocol violation or a broken stream. It never writes anything to
// the stream except protocol messages: a subprocess worker must keep its
// stdout clean and send human-readable noise to stderr.
func Serve(r io.Reader, w io.Writer, runner Runner) error {
	dec := newDecoder(r)
	enc := newEncoder(w)

	hello, err := dec.next()
	if err != nil {
		if err == io.EOF {
			return nil // coordinator went away before the handshake
		}
		return err
	}
	if hello.T != MsgHello {
		return fmt.Errorf("dist: worker expected %s, got %s", MsgHello, hello.T)
	}
	if hello.Proto != ProtoVersion {
		return fmt.Errorf("dist: protocol version mismatch: coordinator %d, worker %d", hello.Proto, ProtoVersion)
	}
	spec := hello.Spec
	if err := enc.send(&Msg{T: MsgReady, Proto: ProtoVersion}); err != nil {
		return err
	}

	for {
		m, err := dec.next()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		switch m.T {
		case MsgGrant:
			if m.Count <= 0 {
				return fmt.Errorf("dist: grant for chunk %d with count %d", m.Chunk, m.Count)
			}
			for i := 0; i < m.Count; i++ {
				run := m.Start + i
				payload, runErr := runOne(runner, spec, run)
				shard := &Msg{T: MsgShard, Chunk: m.Chunk, Run: run, Payload: payload}
				if runErr != nil {
					shard.Payload = nil
					shard.Err = runErr.Error()
				}
				if err := enc.send(shard); err != nil {
					return err
				}
			}
		case MsgShutdown:
			return nil
		default:
			// Unknown types are ignored for forward compatibility; the
			// coordinator never depends on a worker rejecting them.
		}
	}
}

// runOne executes a single run with panic recovery.
func runOne(runner Runner, spec json.RawMessage, run int) (payload []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			payload, err = nil, fmt.Errorf("run %d panicked: %v", run, r)
		}
	}()
	return runner.Run(spec, run)
}
