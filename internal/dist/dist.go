// Package dist is the fault-tolerant distributed campaign engine: a
// coordinator hands out leased run-index chunks to workers, workers execute
// runs and stream result shards back over a length-framed protocol, and the
// coordinator folds the committed shards in run-index order — so a sharded
// campaign reproduces the serial one byte for byte at any worker count and
// chunk size.
//
// Robustness is the point of the layer. Runs are pure functions of
// (spec, run index), which buys two properties cheaply:
//
//   - A worker that crashes, hangs past its lease, or breaks the protocol
//     is killed and loses its chunk: the chunk is re-issued to another live
//     worker under a retry cap, and the campaign degrades gracefully down to
//     a single surviving worker. A lost lease is a dead worker, so a
//     chunk's shards all come from one lease and no late result can follow.
//   - A shard is the only progress: each one extends its lease, and nothing
//     else does, so a wedged worker that still talks but ships no run result
//     is indistinguishable from a hung one and loses its chunk the same way.
//     A worker that never answers the handshake is killed one lease after
//     the campaign began.
//
// The package is workload- and transport-agnostic: the campaign spec is
// opaque bytes a Runner interprets, and a worker is anything that speaks
// the message protocol over a byte stream (subprocess stdin/stdout pipes
// and in-process pipes ship here; a TCP dialer satisfies the same Peer
// interface). The coordinator reports dist_* metrics through an
// internal/obs registry kept separate from the campaign's own metrics, so
// distribution accounting never perturbs the byte-stable campaign exports.
package dist

import (
	"encoding/json"
	"fmt"
	"time"

	"rpivideo/internal/obs"
)

// Runner executes one run of a campaign on the worker side. Implementations
// must be deterministic: the returned payload must be a pure function of
// (spec, run), which is what lets a re-issued chunk's shards stand in for
// the ones its dead worker never shipped. An error return becomes the run's
// recorded error (a per-run failure, not a worker failure).
type Runner interface {
	Run(spec json.RawMessage, run int) ([]byte, error)
}

// RunnerFunc adapts a function to the Runner interface.
type RunnerFunc func(spec json.RawMessage, run int) ([]byte, error)

// Run implements Runner.
func (f RunnerFunc) Run(spec json.RawMessage, run int) ([]byte, error) { return f(spec, run) }

// Peer is the coordinator's handle on one worker: a bidirectional message
// stream plus lifecycle control. Send and Recv are each called from a
// single goroutine (the coordinator's loop and its per-peer reader); Kill
// and Close may race with both and must unblock a pending Recv.
type Peer interface {
	// Send delivers one message to the worker.
	Send(*Msg) error
	// Recv blocks for the worker's next message; it returns an error
	// (io.EOF included) once the worker is gone.
	Recv() (*Msg, error)
	// Kill hard-stops the worker (SIGKILL for subprocesses). Idempotent.
	Kill() error
	// Close releases the peer gracefully after the campaign: input is
	// closed so the worker's Serve loop returns, then the worker is
	// reaped. Idempotent.
	Close() error
	// String names the peer for events and errors.
	String() string
}

// Config tunes the coordinator. The zero value takes the documented
// defaults.
type Config struct {
	// Runs is the campaign size (required, > 0).
	Runs int
	// ChunkSize is the runs per leased chunk. Zero or negative selects
	// runs/(4·workers), clamped to [1, runs] — small enough that losing a
	// worker forfeits little work, large enough to amortize the protocol.
	ChunkSize int
	// Lease is the progress deadline: a leaseholder that ships no shard for
	// this long after its grant or its last shard is killed and loses the
	// chunk, and a worker that has not answered hello this long after Run
	// began is killed. Default DefaultLease.
	Lease time.Duration
	// RetryCap bounds re-issues per chunk: a chunk granted 1+RetryCap
	// times without completing is failed permanently and reported in the
	// campaign error. Default 4.
	RetryCap int
	// Metrics, when non-nil, receives the dist_* counters (leases
	// re-issued, leases expired, workers lost, …). Keep this registry
	// separate from the campaign's own: distribution accounting is
	// nondeterministic by nature and must not touch byte-stable exports.
	Metrics *obs.Registry
	// Events, when non-nil, observes the coordinator state machine. Called
	// synchronously from the coordinator loop; do not block.
	Events func(Event)
	// Status, when non-nil, receives live progress snapshots: runs done
	// (committed chunks plus live-lease progress), per-worker lease state,
	// and retry detail. SimRate stays zero — shard payloads are opaque
	// bytes, so the coordinator cannot know simulated time. Called
	// synchronously from the coordinator loop; do not block.
	Status obs.StatusSink
}

// DefaultLease is Config.Lease's default. A per-run watchdog inside a
// worker must be shorter to ever fire: a run that ships nothing for a lease
// is killed with its worker first.
const DefaultLease = 15 * time.Second

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Lease <= 0 {
		c.Lease = DefaultLease
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 4
	}
	return c
}

// chunkSize resolves the effective chunk size for a worker count.
func (c Config) chunkSize(workers int) int {
	size := c.ChunkSize
	if size <= 0 {
		size = c.Runs / (4 * workers)
	}
	if size < 1 {
		size = 1
	}
	if size > c.Runs {
		size = c.Runs
	}
	return size
}

// EventKind classifies coordinator events.
type EventKind int

// Coordinator event kinds.
const (
	// EvWorkerReady: a worker completed the hello handshake.
	EvWorkerReady EventKind = iota
	// EvWorkerLost: a worker's stream ended or it was killed (crash,
	// expired lease, missed handshake deadline, protocol fault). Chunk
	// identifies the lease it held, -1 for none.
	EvWorkerLost
	// EvGrant: a chunk was leased to a worker. Attempt counts grants of
	// this chunk, starting at 1.
	EvGrant
	// EvLeaseExpired: a leaseholder shipped no shard within the lease. It
	// is killed (EvWorkerLost follows) and its chunk returns to the pending
	// pool.
	EvLeaseExpired
	// EvChunkDone: a chunk's last shard arrived and the chunk committed.
	EvChunkDone
	// EvChunkFailed: a chunk exhausted its retry budget (or lost all
	// workers) and was failed permanently.
	EvChunkFailed
	// EvRunError: a worker reported a per-run error shard.
	EvRunError
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvWorkerReady:
		return "worker-ready"
	case EvWorkerLost:
		return "worker-lost"
	case EvGrant:
		return "grant"
	case EvLeaseExpired:
		return "lease-expired"
	case EvChunkDone:
		return "chunk-done"
	case EvChunkFailed:
		return "chunk-failed"
	case EvRunError:
		return "run-error"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one coordinator state transition.
type Event struct {
	Kind   EventKind
	Worker int // worker index, -1 when not applicable
	Chunk  int // chunk id, -1 when not applicable
	// Start and Count locate the chunk's run range.
	Start, Count int
	// Attempt counts grants of the chunk so far (EvGrant, EvChunkFailed).
	Attempt int
	// Run is the failing run index (EvRunError), -1 otherwise.
	Run int
	// Err carries failure detail (EvWorkerLost, EvChunkFailed, EvRunError).
	Err string
}

// String renders the event for logs.
func (e Event) String() string {
	s := fmt.Sprintf("%v worker=%d chunk=%d", e.Kind, e.Worker, e.Chunk)
	if e.Count > 0 {
		s += fmt.Sprintf(" runs=[%d,%d)", e.Start, e.Start+e.Count)
	}
	if e.Attempt > 0 {
		s += fmt.Sprintf(" attempt=%d", e.Attempt)
	}
	if e.Run >= 0 {
		s += fmt.Sprintf(" run=%d", e.Run)
	}
	if e.Err != "" {
		s += " err=" + e.Err
	}
	return s
}

// ChunkError reports one permanently failed chunk.
type ChunkError struct {
	Chunk, Start, Count, Attempts int
	Reason                        string
}

// Error implements error.
func (c ChunkError) Error() string {
	return fmt.Sprintf("chunk %d (runs [%d,%d)) failed after %d attempt(s): %s",
		c.Chunk, c.Start, c.Start+c.Count, c.Attempts, c.Reason)
}

// Outcome is a campaign's collected result: one payload slot per run, in
// run-index order — exactly what a serial execution of the Runner would
// have produced, whatever crashed along the way.
type Outcome struct {
	// Shards holds each run's payload; nil where the run errored or its
	// chunk failed.
	Shards [][]byte
	// RunErrs holds each run's error; nil where Shards[i] is valid.
	RunErrs []error
	// Failed lists chunks that exhausted their retry budget.
	Failed []ChunkError
}

// Err summarizes the outcome: nil when every run has a shard or a
// worker-reported per-run error, otherwise the chunk failures.
func (o *Outcome) Err() error {
	if len(o.Failed) == 0 {
		return nil
	}
	return fmt.Errorf("dist: %d chunk(s) failed permanently; first: %w", len(o.Failed), o.Failed[0])
}
