package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"rpivideo/internal/obs"
)

// chunkPhase is a chunk's position in the lease state machine.
type chunkPhase int

const (
	chunkPending chunkPhase = iota // waiting for an idle worker
	chunkLeased                    // granted, progress deadline armed
	chunkDone                      // every shard received under one lease
	chunkFailed                    // retry budget exhausted
)

// shardRec is one received run result.
type shardRec struct {
	payload  []byte
	err      string
	received bool
}

// chunk is one leased unit of work: the contiguous run range
// [start, start+count).
type chunk struct {
	id, start, count int
	phase            chunkPhase
	worker           int // leaseholder (leased) or committing worker (done); -1 otherwise
	attempts         int // grants issued
	deadline         time.Time
	// got holds the current lease's shards, one slot per run of the chunk;
	// progress counts the filled slots. A forfeit discards both.
	got        []shardRec
	progress   int
	failReason string
}

// workerPhase is a worker's position in the coordinator's view.
type workerPhase int

const (
	wStarting workerPhase = iota // hello sent, ready not yet seen
	wIdle                        // grantable
	wBusy                        // holds a live lease
	wDead                        // stream gone or killed
)

// wstate is the coordinator's bookkeeping for one worker.
type wstate struct {
	peer  Peer
	phase workerPhase
	chunk int // chunk held (busy); -1 otherwise
}

// envelope tags a received message (or terminal stream error) with its
// worker index.
type envelope struct {
	worker int
	msg    *Msg
	err    error
}

// coord is the in-flight coordinator state.
type coord struct {
	cfg     Config
	spec    json.RawMessage
	chunks  []*chunk
	workers []*wstate
	ch      chan envelope
	stop    chan struct{}
	now     func() time.Time
	// start anchors the handshake deadline and the status snapshots' wall
	// clock; runErrors counts worker-reported per-run error shards for the
	// same surface.
	start     time.Time
	runErrors int
}

// Run executes a distributed campaign over the given worker peers and
// returns the folded outcome. The outcome's shard slots are filled in
// run-index order from each chunk's committed lease; the returned error is
// non-nil when any chunk failed permanently (see Outcome.Failed for the
// per-chunk report). Run always releases the peers before returning.
func Run(spec json.RawMessage, cfg Config, peers []Peer) (*Outcome, error) {
	cfg = cfg.withDefaults()
	if cfg.Runs <= 0 {
		return &Outcome{}, nil
	}
	if len(peers) == 0 {
		return nil, errors.New("dist: no workers")
	}

	c := &coord{
		cfg:   cfg,
		spec:  spec,
		ch:    make(chan envelope),
		stop:  make(chan struct{}),
		now:   time.Now,
		start: time.Now(),
	}
	size := cfg.chunkSize(len(peers))
	for start := 0; start < cfg.Runs; start += size {
		n := size
		if start+n > cfg.Runs {
			n = cfg.Runs - start
		}
		c.chunks = append(c.chunks, &chunk{id: len(c.chunks), start: start, count: n, worker: -1})
	}
	c.count("dist_chunks", int64(len(c.chunks)))
	c.count("dist_workers_started", int64(len(peers)))

	for i, p := range peers {
		w := &wstate{peer: p, phase: wStarting, chunk: -1}
		c.workers = append(c.workers, w)
		if err := p.Send(&Msg{T: MsgHello, Proto: ProtoVersion, Spec: spec}); err != nil {
			c.markDead(i, fmt.Sprintf("hello failed: %v", err))
			continue
		}
		go c.reader(i, p)
	}
	defer close(c.stop)
	defer c.release()

	if c.live() == 0 {
		return nil, errors.New("dist: every worker failed the handshake")
	}

	c.publishStatus(false)
	for !c.finished() {
		now := c.now()
		c.expire(now)
		c.grant(now)
		if c.finished() {
			break
		}
		timer := time.NewTimer(c.wake(now))
		select {
		case env := <-c.ch:
			timer.Stop()
			c.handle(env)
		case <-timer.C:
		}
		c.publishStatus(false)
	}
	c.publishStatus(true)
	out := c.outcome()
	return out, out.Err()
}

// reader pumps one peer's messages into the coordinator channel until the
// stream dies or the coordinator stops.
func (c *coord) reader(i int, p Peer) {
	for {
		m, err := p.Recv()
		select {
		case c.ch <- envelope{worker: i, msg: m, err: err}:
		case <-c.stop:
			return
		}
		if err != nil {
			return
		}
	}
}

// count adds to a dist_* counter when a metrics registry is configured.
func (c *coord) count(name string, delta int64) {
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.Add(name, delta)
	}
}

// event emits a coordinator event.
func (c *coord) event(e Event) {
	if c.cfg.Events != nil {
		c.cfg.Events(e)
	}
}

// live counts workers that are not dead.
func (c *coord) live() int {
	n := 0
	for _, w := range c.workers {
		if w.phase != wDead {
			n++
		}
	}
	return n
}

// finished reports whether every chunk reached a terminal phase.
func (c *coord) finished() bool {
	for _, ck := range c.chunks {
		if ck.phase != chunkDone && ck.phase != chunkFailed {
			return false
		}
	}
	return true
}

// handshakeDeadline is when a worker that has not answered hello is killed.
func (c *coord) handshakeDeadline() time.Time { return c.start.Add(c.cfg.Lease) }

// wake computes how long the loop may sleep: until the earliest lease
// deadline, or the handshake deadline while a worker is still starting. The
// 500 ms ceiling is a safety net — a missed bookkeeping wake costs one tick,
// never a hang.
func (c *coord) wake(now time.Time) time.Duration {
	d := 500 * time.Millisecond
	consider := func(t time.Time) {
		if until := t.Sub(now); until < d {
			d = until
		}
	}
	for _, w := range c.workers {
		if w.phase == wStarting {
			consider(c.handshakeDeadline())
			break
		}
	}
	for _, ck := range c.chunks {
		if ck.phase == chunkLeased {
			consider(ck.deadline)
		}
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// expire kills the workers that ran out of time: one still starting a Lease
// after Run began, and a leaseholder whose grant or last shard is a Lease
// old. A killed leaseholder forfeits its chunk.
func (c *coord) expire(now time.Time) {
	if !now.Before(c.handshakeDeadline()) {
		for wi, w := range c.workers {
			if w.phase == wStarting {
				c.kill(wi, fmt.Sprintf("no ready within the %v lease", c.cfg.Lease))
			}
		}
	}
	for _, ck := range c.chunks {
		if ck.phase != chunkLeased || now.Before(ck.deadline) {
			continue
		}
		wi := ck.worker
		c.count("dist_lease_expiries", 1)
		c.event(Event{Kind: EvLeaseExpired, Worker: wi, Chunk: ck.id, Start: ck.start, Count: ck.count, Attempt: ck.attempts, Run: -1})
		c.kill(wi, fmt.Sprintf("lease on chunk %d expired", ck.id))
	}
}

// kill hard-stops a worker and writes it off.
func (c *coord) kill(wi int, reason string) {
	c.workers[wi].peer.Kill()
	c.markDead(wi, reason)
}

// forfeit returns a leased chunk to the pending pool, discarding the
// lease's shards, or fails it when the retry budget is spent.
func (c *coord) forfeit(ck *chunk, reason string) {
	ck.phase = chunkPending
	ck.worker = -1
	ck.got, ck.progress = nil, 0
	if ck.attempts > c.cfg.RetryCap {
		c.fail(ck, fmt.Sprintf("retry budget exhausted (%d attempts); last: %s", ck.attempts, reason))
	}
}

// fail marks a chunk permanently failed.
func (c *coord) fail(ck *chunk, reason string) {
	ck.phase = chunkFailed
	ck.failReason = reason
	c.count("dist_chunks_failed", 1)
	c.event(Event{Kind: EvChunkFailed, Worker: -1, Chunk: ck.id, Start: ck.start, Count: ck.count, Attempt: ck.attempts, Run: -1, Err: reason})
}

// grant leases pending chunks, in id order, to idle workers.
func (c *coord) grant(now time.Time) {
	for _, ck := range c.chunks {
		if ck.phase != chunkPending {
			continue
		}
		for {
			wi := c.firstIdle()
			if wi < 0 {
				return // no capacity; a shard or a death frees some
			}
			w := c.workers[wi]
			if err := w.peer.Send(&Msg{T: MsgGrant, Chunk: ck.id, Start: ck.start, Count: ck.count}); err != nil {
				c.markDead(wi, fmt.Sprintf("grant failed: %v", err))
				continue // try the next idle worker
			}
			ck.phase = chunkLeased
			ck.worker = wi
			ck.attempts++
			ck.deadline = now.Add(c.cfg.Lease)
			ck.got = make([]shardRec, ck.count)
			w.phase = wBusy
			w.chunk = ck.id
			c.count("dist_leases_granted", 1)
			if ck.attempts > 1 {
				c.count("dist_leases_reissued", 1)
				if ck.attempts == 2 {
					c.count("dist_chunks_retried", 1)
				}
			}
			c.event(Event{Kind: EvGrant, Worker: wi, Chunk: ck.id, Start: ck.start, Count: ck.count, Attempt: ck.attempts, Run: -1})
			break
		}
	}
}

// firstIdle returns the lowest-index grantable worker, or -1.
func (c *coord) firstIdle() int {
	for i, w := range c.workers {
		if w.phase == wIdle {
			return i
		}
	}
	return -1
}

// markDead transitions a worker to dead, forfeiting any lease it held, and
// fails the remaining work when the last worker is gone.
func (c *coord) markDead(wi int, reason string) {
	w := c.workers[wi]
	if w.phase == wDead {
		return
	}
	held := w.chunk
	w.phase = wDead
	w.chunk = -1
	c.count("dist_workers_lost", 1)
	c.event(Event{Kind: EvWorkerLost, Worker: wi, Chunk: held, Run: -1, Err: reason})
	if held >= 0 {
		c.forfeit(c.chunks[held], fmt.Sprintf("worker %d lost (%s)", wi, reason))
	}
	if c.live() == 0 {
		for _, ck := range c.chunks {
			if ck.phase == chunkPending || ck.phase == chunkLeased {
				c.fail(ck, "no live workers left")
			}
		}
	}
}

// handle processes one incoming envelope. Messages from a dead worker are
// dropped, and so are message types the coordinator does not know.
func (c *coord) handle(env envelope) {
	w := c.workers[env.worker]
	if env.err != nil {
		reason := env.err.Error()
		if env.err == io.EOF {
			reason = "stream closed"
		}
		c.markDead(env.worker, reason)
		return
	}
	if w.phase == wDead {
		return // late message from a worker already written off
	}
	m := env.msg
	switch m.T {
	case MsgReady:
		if m.Proto != ProtoVersion {
			c.kill(env.worker, fmt.Sprintf("protocol version mismatch: worker %d, coordinator %d", m.Proto, ProtoVersion))
			return
		}
		if w.phase == wStarting {
			w.phase = wIdle
			c.count("dist_workers_ready", 1)
			c.event(Event{Kind: EvWorkerReady, Worker: env.worker, Chunk: -1, Run: -1})
		}
	case MsgShard:
		c.shard(env.worker, m)
	}
}

// shard accepts one run result from the chunk's leaseholder, for a run
// inside the chunk not yet received under this lease. Anything else is a
// protocol fault that kills the worker (forfeiting its lease). Each accepted
// shard pushes the deadline a Lease ahead; the count-th commits the chunk
// and frees the worker.
func (c *coord) shard(wi int, m *Msg) {
	w := c.workers[wi]
	if w.phase != wBusy || m.Chunk != w.chunk {
		c.kill(wi, fmt.Sprintf("shard for chunk %d, which it does not hold", m.Chunk))
		return
	}
	ck := c.chunks[w.chunk]
	i := m.Run - ck.start
	if i < 0 || i >= ck.count {
		c.kill(wi, fmt.Sprintf("shard for run %d outside chunk %d [%d,%d)", m.Run, ck.id, ck.start, ck.start+ck.count))
		return
	}
	if ck.got[i].received {
		c.kill(wi, fmt.Sprintf("run %d of chunk %d shipped twice", m.Run, ck.id))
		return
	}
	rec := shardRec{err: m.Err, received: true}
	if m.Err == "" {
		rec.payload = m.Payload // the decoder read it into a buffer of its own
	}
	ck.got[i] = rec
	ck.progress++
	c.count("dist_shards_received", 1)
	if m.Err != "" {
		c.runErrors++
		c.count("dist_run_errors", 1)
		c.event(Event{Kind: EvRunError, Worker: wi, Chunk: ck.id, Run: m.Run, Err: m.Err})
	}
	if ck.progress < ck.count {
		ck.deadline = c.now().Add(c.cfg.Lease)
		return
	}
	ck.phase = chunkDone
	w.phase = wIdle
	w.chunk = -1
	c.count("dist_chunks_completed", 1)
	c.event(Event{Kind: EvChunkDone, Worker: wi, Chunk: ck.id, Start: ck.start, Count: ck.count, Attempt: ck.attempts, Run: -1})
}

// publishStatus emits the coordinator's live view to the status sink:
// runs done (committed chunks plus the current leases' streamed shards),
// per-worker lease phase, and the held chunk's attempt count. Progress can
// regress transiently when a lease is forfeited — the re-issued chunk's
// shards start over — which is the honest view of fault-tolerant work.
func (c *coord) publishStatus(done bool) {
	if c.cfg.Status == nil {
		return
	}
	s := obs.StatusSnapshot{
		Mode:        "dist",
		RunsTotal:   c.cfg.Runs,
		RunErrors:   c.runErrors,
		WallSeconds: c.now().Sub(c.start).Seconds(),
		Done:        done,
	}
	for _, ck := range c.chunks {
		switch ck.phase {
		case chunkDone:
			s.RunsDone += ck.count
		case chunkLeased:
			s.RunsDone += ck.progress
		}
	}
	if s.RunsDone > 0 && s.RunsDone < s.RunsTotal {
		s.ETASeconds = s.WallSeconds / float64(s.RunsDone) * float64(s.RunsTotal-s.RunsDone)
	}
	s.Workers = make([]obs.WorkerStatus, len(c.workers))
	for i, w := range c.workers {
		ws := obs.WorkerStatus{Worker: i, State: w.phase.String(), Chunk: w.chunk}
		if w.chunk >= 0 {
			ck := c.chunks[w.chunk]
			ws.Attempt = ck.attempts
			ws.Progress = ck.progress
		}
		s.Workers[i] = ws
	}
	c.cfg.Status.PublishStatus(s)
}

// String names the worker phase for the status surface.
func (p workerPhase) String() string {
	switch p {
	case wStarting:
		return "starting"
	case wIdle:
		return "idle"
	case wBusy:
		return "busy"
	case wDead:
		return "dead"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// outcome folds the committed shards into run-index order. Run returns it
// only once every chunk is done or failed.
func (c *coord) outcome() *Outcome {
	out := &Outcome{
		Shards:  make([][]byte, c.cfg.Runs),
		RunErrs: make([]error, c.cfg.Runs),
	}
	for _, ck := range c.chunks {
		switch ck.phase {
		case chunkDone:
			for i, rec := range ck.got {
				if rec.err != "" {
					out.RunErrs[ck.start+i] = errors.New(rec.err)
				} else {
					out.Shards[ck.start+i] = rec.payload
				}
			}
		case chunkFailed:
			ce := ChunkError{Chunk: ck.id, Start: ck.start, Count: ck.count, Attempts: ck.attempts, Reason: ck.failReason}
			out.Failed = append(out.Failed, ce)
			for run := ck.start; run < ck.start+ck.count; run++ {
				out.RunErrs[run] = ce
			}
		}
	}
	return out
}

// release shuts every surviving worker down gracefully.
func (c *coord) release() {
	for _, w := range c.workers {
		if w.phase != wDead {
			w.peer.Send(&Msg{T: MsgShutdown})
		}
		w.peer.Close()
	}
}
