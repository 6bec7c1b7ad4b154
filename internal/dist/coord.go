package dist

import (
	"bytes"
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
	chunkPending chunkPhase = iota // waiting for a worker (possibly backoff-gated)
	chunkLeased                    // granted, progress deadline armed
	chunkDone                      // first complete shard set committed
	chunkFailed                    // retry budget exhausted
)

// shardRec is one received run result.
type shardRec struct {
	payload []byte
	err     string
}

// chunk is one leased unit of work: the contiguous run range
// [start, start+count).
type chunk struct {
	id, start, count int
	phase            chunkPhase
	worker           int // leaseholder (leased) or committing worker (done); -1 otherwise
	attempts         int // grants issued
	deadline         time.Time
	notBefore        time.Time // backoff gate for the next grant
	progress         int       // shards received under the current lease
	// got buffers shard sets per worker: reconciliation needs the losing
	// attempt's bytes to verify a duplicate is byte-identical.
	got        map[int]map[int]shardRec
	failReason string
}

// recs returns (creating) the shard buffer for one worker.
func (c *chunk) recs(w int) map[int]shardRec {
	if c.got == nil {
		c.got = make(map[int]map[int]shardRec)
	}
	m := c.got[w]
	if m == nil {
		m = make(map[int]shardRec, c.count)
		c.got[w] = m
	}
	return m
}

// workerPhase is a worker's position in the coordinator's view.
type workerPhase int

const (
	wStarting workerPhase = iota // hello sent, ready not yet seen
	wIdle                        // grantable
	wBusy                        // holds a live lease
	wRevoked                     // lease expired but kept alive (KeepStragglers)
	wDead                        // stream gone or killed
)

// wstate is the coordinator's bookkeeping for one worker.
type wstate struct {
	peer     Peer
	phase    workerPhase
	chunk    int       // chunk being executed (busy/revoked); -1 otherwise
	deadline time.Time // revoked: second-strike deadline
	progress int       // revoked: shards seen, to extend the second strike
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
	// start anchors the status snapshots' wall clock; runErrors counts
	// worker-reported per-run error shards for the same surface.
	start     time.Time
	runErrors int
}

// ErrDivergence is wrapped into the hard error returned when duplicate
// executions of one chunk produce different bytes: deterministic runs make
// that corruption, never a benign race.
var ErrDivergence = errors.New("dist: divergent duplicate shard set")

// Run executes a distributed campaign over the given worker peers and
// returns the folded outcome. The outcome's shard slots are filled in
// run-index order from each chunk's first committed shard set; the
// returned error is non-nil when any chunk failed permanently (see
// Outcome.Failed for the per-chunk report) or on a divergence hard error.
// Run always releases the peers before returning (graceful shutdown for
// survivors, kill for the divergence abort).
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
		c.reap(now)
		if c.finished() {
			break
		}
		timer := time.NewTimer(c.wake(now))
		select {
		case env := <-c.ch:
			timer.Stop()
			if err := c.handle(env); err != nil {
				c.killAll()
				c.publishStatus(true)
				return c.outcome(), err
			}
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

// wake computes how long the loop may sleep: the earliest lease deadline,
// straggler second strike, or backoff gate. The 500 ms ceiling is a safety
// net — a missed bookkeeping wake costs one tick, never a hang.
func (c *coord) wake(now time.Time) time.Duration {
	const ceiling = 500 * time.Millisecond
	d := ceiling
	consider := func(t time.Time) {
		if t.IsZero() {
			return
		}
		if until := t.Sub(now); until < d {
			d = until
		}
	}
	for _, ck := range c.chunks {
		switch ck.phase {
		case chunkLeased:
			consider(ck.deadline)
		case chunkPending:
			consider(ck.notBefore)
		}
	}
	for _, w := range c.workers {
		if w.phase == wRevoked {
			consider(w.deadline)
		}
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// expire forfeits the chunks of leaseholders that made no progress within
// the lease window.
func (c *coord) expire(now time.Time) {
	for _, ck := range c.chunks {
		if ck.phase != chunkLeased || now.Before(ck.deadline) {
			continue
		}
		wi := ck.worker
		w := c.workers[wi]
		c.count("dist_lease_expiries", 1)
		c.event(Event{Kind: EvLeaseExpired, Worker: wi, Chunk: ck.id, Start: ck.start, Count: ck.count, Attempt: ck.attempts, Run: -1})
		c.forfeit(ck, now, fmt.Sprintf("lease expired on worker %d", wi))
		if w.phase != wBusy { // lost the race with a death notification
			continue
		}
		if c.cfg.KeepStragglers {
			// First strike: keep the straggler — its late result can still
			// win the chunk or reconcile as a duplicate — but arm a second
			// strike: another silent lease interval kills it.
			w.phase = wRevoked
			w.deadline = now.Add(c.cfg.Lease)
			w.progress = ck.progress
		} else {
			c.killStraggler(wi)
		}
	}
}

// reap kills revoked stragglers whose second-strike deadline passed.
func (c *coord) reap(now time.Time) {
	for wi, w := range c.workers {
		if w.phase == wRevoked && !now.Before(w.deadline) {
			c.killStraggler(wi)
		}
	}
}

// killStraggler hard-stops a worker that outstayed its lease.
func (c *coord) killStraggler(wi int) {
	w := c.workers[wi]
	if w.phase == wDead {
		return
	}
	c.count("dist_stragglers_killed", 1)
	c.event(Event{Kind: EvStragglerKilled, Worker: wi, Chunk: w.chunk, Run: -1})
	w.peer.Kill()
	c.markDead(wi, "straggler killed")
}

// forfeit returns a leased chunk to the pending pool (or fails it when the
// retry budget is spent) with exponential backoff before the next grant.
func (c *coord) forfeit(ck *chunk, now time.Time, reason string) {
	ck.phase = chunkPending
	ck.worker = -1
	ck.progress = 0
	if ck.attempts > c.cfg.RetryCap {
		c.fail(ck, fmt.Sprintf("retry budget exhausted (%d attempts); last: %s", ck.attempts, reason))
		return
	}
	backoff := c.cfg.Backoff << (ck.attempts - 1)
	if backoff > c.cfg.BackoffMax || backoff <= 0 {
		backoff = c.cfg.BackoffMax
	}
	ck.notBefore = now.Add(backoff)
}

// fail marks a chunk permanently failed.
func (c *coord) fail(ck *chunk, reason string) {
	ck.phase = chunkFailed
	ck.failReason = reason
	c.count("dist_chunks_failed", 1)
	c.event(Event{Kind: EvChunkFailed, Worker: -1, Chunk: ck.id, Start: ck.start, Count: ck.count, Attempt: ck.attempts, Run: -1, Err: reason})
}

// grant leases pending chunks (in id order, respecting backoff gates) to
// idle workers.
func (c *coord) grant(now time.Time) {
	for _, ck := range c.chunks {
		if ck.phase != chunkPending || now.Before(ck.notBefore) {
			continue
		}
		for {
			wi := c.firstIdle()
			if wi < 0 {
				return // no capacity; the wake timer revisits
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
			ck.progress = 0
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

// markDead transitions a worker to dead, releasing any lease it held, and
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
		ck := c.chunks[held]
		if ck.phase == chunkLeased && ck.worker == wi {
			c.forfeit(ck, c.now(), fmt.Sprintf("worker %d lost (%s)", wi, reason))
		}
		delete(ck.got, wi) // a dead worker's partial set can never complete
	}
	if c.live() == 0 {
		for _, ck := range c.chunks {
			if ck.phase == chunkPending || ck.phase == chunkLeased {
				c.fail(ck, "no live workers left")
			}
		}
	}
}

// handle processes one incoming envelope. A non-nil return aborts the
// campaign (divergence hard error).
func (c *coord) handle(env envelope) error {
	w := c.workers[env.worker]
	if env.err != nil {
		if w.phase != wDead {
			reason := env.err.Error()
			if env.err == io.EOF {
				reason = "stream closed"
			}
			c.markDead(env.worker, reason)
		}
		return nil
	}
	if w.phase == wDead {
		return nil // late message from a worker already written off
	}
	m := env.msg
	switch m.T {
	case MsgReady:
		if m.Proto != ProtoVersion {
			w.peer.Kill()
			c.markDead(env.worker, fmt.Sprintf("protocol version mismatch: worker %d, coordinator %d", m.Proto, ProtoVersion))
			return nil
		}
		if w.phase == wStarting {
			w.phase = wIdle
			c.count("dist_workers_ready", 1)
			c.event(Event{Kind: EvWorkerReady, Worker: env.worker, Chunk: -1, Run: -1})
		}
	case MsgBeat:
		c.progressed(env.worker, m.Chunk, m.Done)
	case MsgShard:
		c.shard(env.worker, m)
	case MsgChunkDone:
		return c.chunkDone(env.worker, m.Chunk)
	}
	return nil
}

// progressed extends deadlines when a worker advances through its chunk.
// Idle heartbeats (done not advancing) extend nothing: a wedged worker
// that still beats loses its lease exactly like a silent one.
func (c *coord) progressed(wi, chunkID, done int) {
	if chunkID < 0 || chunkID >= len(c.chunks) {
		return
	}
	ck := c.chunks[chunkID]
	w := c.workers[wi]
	switch {
	case ck.phase == chunkLeased && ck.worker == wi:
		if done > ck.progress {
			ck.progress = done
			ck.deadline = c.now().Add(c.cfg.Lease)
		}
	case w.phase == wRevoked && w.chunk == chunkID:
		if done > w.progress {
			w.progress = done
			w.deadline = c.now().Add(c.cfg.Lease)
		}
	}
}

// shard buffers one run result and treats it as progress.
func (c *coord) shard(wi int, m *Msg) {
	if m.Chunk < 0 || m.Chunk >= len(c.chunks) {
		return
	}
	ck := c.chunks[m.Chunk]
	if m.Run < ck.start || m.Run >= ck.start+ck.count {
		// A worker shipping runs outside its chunk is broken; cut it off
		// before it can corrupt the fold.
		c.workers[wi].peer.Kill()
		c.markDead(wi, fmt.Sprintf("shard for run %d outside chunk %d [%d,%d)", m.Run, ck.id, ck.start, ck.start+ck.count))
		return
	}
	rec := shardRec{err: m.Err}
	if m.Err == "" {
		rec.payload = m.Payload // the decoder read it into a buffer of its own
	}
	ck.recs(wi)[m.Run] = rec
	c.count("dist_shards_received", 1)
	if m.Err != "" {
		c.runErrors++
		c.count("dist_run_errors", 1)
		c.event(Event{Kind: EvRunError, Worker: wi, Chunk: ck.id, Run: m.Run, Err: m.Err})
	}
	c.progressed(wi, m.Chunk, len(ck.got[wi]))
}

// chunkDone commits or reconciles a completed shard set. First complete
// set per chunk wins; a byte-identical duplicate is dropped; a divergent
// duplicate aborts the campaign.
func (c *coord) chunkDone(wi, chunkID int) error {
	if chunkID < 0 || chunkID >= len(c.chunks) {
		return nil
	}
	ck := c.chunks[chunkID]
	w := c.workers[wi]
	set := ck.got[wi]
	if len(set) != ck.count {
		// A premature chunk_done is a protocol fault; markDead releases
		// the lease this worker still holds.
		w.peer.Kill()
		c.markDead(wi, fmt.Sprintf("chunk %d closed with %d/%d shards", chunkID, len(set), ck.count))
		return nil
	}
	// The worker is free again whichever way reconciliation goes.
	if w.chunk == chunkID && (w.phase == wBusy || w.phase == wRevoked) {
		w.phase = wIdle
		w.chunk = -1
	}
	if ck.phase == chunkDone {
		// Reconcile the duplicate against the committed set.
		committed := ck.got[ck.worker]
		for run, rec := range set {
			want := committed[run]
			if want.err != rec.err || !bytes.Equal(want.payload, rec.payload) {
				return fmt.Errorf("%w: chunk %d run %d from workers %d and %d differ — deterministic runs make this corruption",
					ErrDivergence, chunkID, run, ck.worker, wi)
			}
		}
		c.count("dist_duplicate_chunks", 1)
		c.event(Event{Kind: EvChunkDuplicate, Worker: wi, Chunk: chunkID, Start: ck.start, Count: ck.count, Run: -1})
		delete(ck.got, wi)
		return nil
	}
	// First complete set wins — even for a chunk already written off as
	// failed (a straggler limping home is still a correct result).
	if ck.phase == chunkLeased && ck.worker != wi {
		// A revoked straggler beat the current leaseholder to the commit.
		// The leaseholder leaves the expiry scan with its chunk, so demote
		// it to revoked: finishing frees it (duplicate path), wedging gets
		// it reaped at the second-strike deadline.
		v := c.workers[ck.worker]
		if v.phase == wBusy && v.chunk == chunkID {
			v.phase = wRevoked
			v.deadline = c.now().Add(c.cfg.Lease)
			v.progress = ck.progress
		}
	}
	if ck.phase == chunkFailed {
		ck.failReason = ""
		c.count("dist_chunks_failed", -1)
	}
	ck.phase = chunkDone
	ck.worker = wi
	c.count("dist_chunks_completed", 1)
	c.event(Event{Kind: EvChunkDone, Worker: wi, Chunk: chunkID, Start: ck.start, Count: ck.count, Attempt: ck.attempts, Run: -1})
	return nil
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
			if w.phase == wRevoked {
				ws.Progress = w.progress
			} else {
				ws.Progress = ck.progress
			}
		}
		s.Workers[i] = ws
	}
	c.cfg.Status.PublishStatus(s)
}

// String names the worker phase for the status surface ("straggler" for
// revoked: the operator-facing word for a worker running past its lease).
func (p workerPhase) String() string {
	switch p {
	case wStarting:
		return "starting"
	case wIdle:
		return "idle"
	case wBusy:
		return "busy"
	case wRevoked:
		return "straggler"
	case wDead:
		return "dead"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// outcome folds the committed shard sets into run-index order.
func (c *coord) outcome() *Outcome {
	out := &Outcome{
		Shards:  make([][]byte, c.cfg.Runs),
		RunErrs: make([]error, c.cfg.Runs),
	}
	for _, ck := range c.chunks {
		switch ck.phase {
		case chunkDone:
			set := ck.got[ck.worker]
			for run, rec := range set {
				if rec.err != "" {
					out.RunErrs[run] = errors.New(rec.err)
				} else {
					out.Shards[run] = rec.payload
				}
			}
		case chunkFailed:
			ce := ChunkError{Chunk: ck.id, Start: ck.start, Count: ck.count, Attempts: ck.attempts, Reason: ck.failReason}
			out.Failed = append(out.Failed, ce)
			for run := ck.start; run < ck.start+ck.count; run++ {
				out.RunErrs[run] = ce
			}
		default:
			// Aborted mid-flight (divergence): leave the slots nil.
			for run := ck.start; run < ck.start+ck.count; run++ {
				if out.RunErrs[run] == nil {
					out.RunErrs[run] = fmt.Errorf("chunk %d incomplete at campaign abort", ck.id)
				}
			}
		}
	}
	return out
}

// release shuts every surviving worker down gracefully.
func (c *coord) release() {
	for _, w := range c.workers {
		if w.phase == wDead {
			w.peer.Close()
			continue
		}
		w.peer.Send(&Msg{T: MsgShutdown})
		w.peer.Close()
	}
}

// killAll hard-stops everything (divergence abort path).
func (c *coord) killAll() {
	for _, w := range c.workers {
		if w.phase != wDead {
			w.peer.Kill()
			w.phase = wDead
		}
	}
}
