package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"rpivideo/internal/obs"
)

// testPayload is the deterministic shard a well-behaved test runner
// produces for one run.
func testPayload(spec json.RawMessage, run int) []byte {
	return []byte(fmt.Sprintf(`{"spec":%s,"run":%d,"v":%d}`, spec, run, run*run+7))
}

func okRunner() Runner {
	return RunnerFunc(func(spec json.RawMessage, run int) ([]byte, error) {
		return testPayload(spec, run), nil
	})
}

// requireSerialEquivalence asserts the outcome matches a serial execution
// of the runner byte for byte.
func requireSerialEquivalence(t *testing.T, spec json.RawMessage, runs int, out *Outcome) {
	t.Helper()
	if len(out.Shards) != runs || len(out.RunErrs) != runs {
		t.Fatalf("outcome sized %d/%d, want %d", len(out.Shards), len(out.RunErrs), runs)
	}
	for run := 0; run < runs; run++ {
		if out.RunErrs[run] != nil {
			t.Fatalf("run %d errored: %v", run, out.RunErrs[run])
		}
		if want := testPayload(spec, run); !bytes.Equal(out.Shards[run], want) {
			t.Fatalf("run %d: got %s, want %s", run, out.Shards[run], want)
		}
	}
}

func TestMergeEquivalenceAcrossTopologies(t *testing.T) {
	spec := json.RawMessage(`"eqv"`)
	const runs = 10
	cases := []struct{ workers, chunk int }{
		{1, runs}, // degenerate: one worker, one chunk
		{3, 2},
		{5, 1},
		{4, 3}, // ragged tail chunk
		{2, 0}, // default chunk sizing
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("w%d_c%d", tc.workers, tc.chunk), func(t *testing.T) {
			peers := make([]Peer, tc.workers)
			for i := range peers {
				peers[i] = StartPipe(fmt.Sprintf("w%d", i), okRunner())
			}
			reg := obs.NewRegistry()
			out, err := Run(spec, Config{Runs: runs, ChunkSize: tc.chunk, Metrics: reg}, peers)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			requireSerialEquivalence(t, spec, runs, out)
			if n := reg.Counter("dist_leases_reissued"); n != 0 {
				t.Fatalf("clean campaign reissued %d leases, want 0", n)
			}
			if n := reg.Counter("dist_workers_lost"); n != 0 {
				t.Fatalf("clean campaign lost %d workers, want 0", n)
			}
			if got := reg.Counter("dist_shards_received"); got != runs {
				t.Fatalf("received %d shards, want %d", got, runs)
			}
		})
	}
}

func TestPerRunErrorsLandAtTheirIndices(t *testing.T) {
	spec := json.RawMessage(`"errs"`)
	bad := map[int]bool{2: true, 5: true}
	runner := RunnerFunc(func(spec json.RawMessage, run int) ([]byte, error) {
		if bad[run] {
			return nil, fmt.Errorf("run %d exploded", run)
		}
		if run == 6 {
			panic(fmt.Sprintf("run %d panicked hard", run))
		}
		return testPayload(spec, run), nil
	})
	peers := []Peer{StartPipe("w0", runner), StartPipe("w1", runner)}
	reg := obs.NewRegistry()
	out, err := Run(spec, Config{Runs: 8, ChunkSize: 2, Metrics: reg}, peers)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for run := 0; run < 8; run++ {
		switch {
		case bad[run]:
			if out.RunErrs[run] == nil || !strings.Contains(out.RunErrs[run].Error(), "exploded") {
				t.Fatalf("run %d: want exploded error, got %v", run, out.RunErrs[run])
			}
		case run == 6:
			if out.RunErrs[run] == nil || !strings.Contains(out.RunErrs[run].Error(), "panicked") {
				t.Fatalf("run %d: want panic error, got %v", run, out.RunErrs[run])
			}
		default:
			if out.RunErrs[run] != nil || !bytes.Equal(out.Shards[run], testPayload(spec, run)) {
				t.Fatalf("run %d: unexpected %v / %s", run, out.RunErrs[run], out.Shards[run])
			}
		}
	}
	if n := reg.Counter("dist_run_errors"); n != 3 {
		t.Fatalf("dist_run_errors = %d, want 3", n)
	}
}

// crashRunner kills its own peer on its first run — the in-process
// analogue of a worker crashing mid-chunk — and signals the crash so the
// test can hold other workers back until it has happened.
type crashRunner struct {
	mu      sync.Mutex
	kill    func() error
	crashed chan struct{}
}

func (c *crashRunner) Run(spec json.RawMessage, run int) ([]byte, error) {
	c.mu.Lock()
	kill := c.kill
	var boom bool
	select {
	case <-c.crashed:
	default:
		boom = true
		close(c.crashed)
	}
	c.mu.Unlock()
	if boom {
		kill()
		return nil, errors.New("crashing")
	}
	return testPayload(spec, run), nil
}

func TestWorkerCrashReissuesChunk(t *testing.T) {
	spec := json.RawMessage(`"crash"`)
	const runs = 8
	cr := &crashRunner{crashed: make(chan struct{})}
	cr.mu.Lock()
	crashPeer := StartPipe("crasher", cr)
	cr.kill = crashPeer.Kill
	cr.mu.Unlock()
	// The steady worker refuses to produce anything until the crash has
	// happened, so the crasher is guaranteed a grant (and the campaign is
	// guaranteed to need a reissue) whatever order the workers come up in.
	steady := RunnerFunc(func(spec json.RawMessage, run int) ([]byte, error) {
		<-cr.crashed
		return testPayload(spec, run), nil
	})
	peers := []Peer{StartPipe("steady", steady), crashPeer}

	reg := obs.NewRegistry()
	out, err := Run(spec, Config{
		Runs: runs, ChunkSize: 2,
		Lease: 2 * time.Second, Metrics: reg,
	}, peers)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	requireSerialEquivalence(t, spec, runs, out)
	if n := reg.Counter("dist_workers_lost"); n != 1 {
		t.Fatalf("dist_workers_lost = %d, want 1", n)
	}
	if n := reg.Counter("dist_leases_reissued"); n < 1 {
		t.Fatalf("dist_leases_reissued = %d, want >= 1", n)
	}
	if n := reg.Counter("dist_chunks_retried"); n < 1 {
		t.Fatalf("dist_chunks_retried = %d, want >= 1", n)
	}
}

// hangRunner blocks forever on the first execution of targetRun (until the
// test releases it); retries sail through.
type hangRunner struct {
	mu        sync.Mutex
	targetRun int
	hung      bool
	release   chan struct{}
}

func (h *hangRunner) Run(spec json.RawMessage, run int) ([]byte, error) {
	h.mu.Lock()
	hang := run == h.targetRun && !h.hung
	if hang {
		h.hung = true
	}
	h.mu.Unlock()
	if hang {
		<-h.release
		return nil, errors.New("was hung")
	}
	return testPayload(spec, run), nil
}

func TestHungWorkerLosesLeaseAndIsKilled(t *testing.T) {
	spec := json.RawMessage(`"hang"`)
	const runs = 6
	hr := &hangRunner{targetRun: 1, release: make(chan struct{})}
	defer close(hr.release)
	peers := []Peer{StartPipe("w0", hr), StartPipe("w1", hr)}

	var mu sync.Mutex
	var kinds []EventKind
	reg := obs.NewRegistry()
	out, err := Run(spec, Config{
		Runs: runs, ChunkSize: 2,
		Lease: 80 * time.Millisecond, Metrics: reg,
		Events: func(e Event) {
			mu.Lock()
			kinds = append(kinds, e.Kind)
			mu.Unlock()
		},
	}, peers)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	requireSerialEquivalence(t, spec, runs, out)
	if n := reg.Counter("dist_lease_expiries"); n != 1 {
		t.Fatalf("dist_lease_expiries = %d, want 1", n)
	}
	if n := reg.Counter("dist_workers_lost"); n != 1 {
		t.Fatalf("dist_workers_lost = %d, want 1", n)
	}
	mu.Lock()
	defer mu.Unlock()
	seen := map[EventKind]bool{}
	for _, k := range kinds {
		seen[k] = true
	}
	for _, want := range []EventKind{EvLeaseExpired, EvWorkerLost, EvGrant, EvChunkDone} {
		if !seen[want] {
			t.Fatalf("event %v never fired (saw %v)", want, kinds)
		}
	}
}

// fakePeer is a hand-scripted worker for coordinator unit tests: the test
// plays the worker side directly over channels.
type fakePeer struct {
	name string
	in   chan *Msg // coordinator → worker script
	out  chan *Msg // worker script → coordinator
	dead chan struct{}
	once sync.Once
}

func newFakePeer(name string) *fakePeer {
	return &fakePeer{name: name, in: make(chan *Msg, 64), out: make(chan *Msg, 64), dead: make(chan struct{})}
}

func (p *fakePeer) Send(m *Msg) error {
	select {
	case p.in <- m:
		return nil
	case <-p.dead:
		return io.ErrClosedPipe
	}
}

func (p *fakePeer) Recv() (*Msg, error) {
	select {
	case m := <-p.out:
		return m, nil
	default:
	}
	select {
	case m := <-p.out:
		return m, nil
	case <-p.dead:
		return nil, io.EOF
	}
}

func (p *fakePeer) Kill() error  { p.once.Do(func() { close(p.dead) }); return nil }
func (p *fakePeer) Close() error { p.once.Do(func() { close(p.dead) }); return nil }
func (p *fakePeer) String() string {
	return "fake:" + p.name
}

// silentWorker acks the handshake then swallows every grant without
// progress — the canonical wedged worker.
func silentWorker(p *fakePeer) {
	go func() {
		for {
			select {
			case m := <-p.in:
				switch m.T {
				case MsgHello:
					p.out <- &Msg{T: MsgReady, Proto: ProtoVersion}
				case MsgShutdown:
					p.Close()
					return
				}
			case <-p.dead:
				return
			}
		}
	}()
}

func TestRetryBudgetExhaustionFailsChunk(t *testing.T) {
	// Six wedged workers, a 1-run campaign, RetryCap 2: grants go out to
	// three workers (attempts 1..3), each lease expires, and the fourth
	// forfeit exhausts the budget.
	var peers []Peer
	for i := 0; i < 6; i++ {
		p := newFakePeer(fmt.Sprintf("silent-%d", i))
		silentWorker(p)
		peers = append(peers, p)
	}
	reg := obs.NewRegistry()
	out, err := Run(json.RawMessage(`"doom"`), Config{
		Runs: 1, ChunkSize: 1,
		Lease: 20 * time.Millisecond, RetryCap: 2, Metrics: reg,
	}, peers)
	if err == nil {
		t.Fatal("expected a campaign error")
	}
	if len(out.Failed) != 1 {
		t.Fatalf("Failed = %v, want exactly one chunk", out.Failed)
	}
	ce := out.Failed[0]
	if ce.Attempts != 3 { // 1 initial + RetryCap re-issues
		t.Fatalf("attempts = %d, want 3", ce.Attempts)
	}
	if !strings.Contains(ce.Reason, "retry budget exhausted") {
		t.Fatalf("reason = %q", ce.Reason)
	}
	var chunkErr ChunkError
	if !errors.As(out.RunErrs[0], &chunkErr) {
		t.Fatalf("RunErrs[0] = %v, want a ChunkError", out.RunErrs[0])
	}
	if n := reg.Counter("dist_chunks_failed"); n != 1 {
		t.Fatalf("dist_chunks_failed = %d, want 1", n)
	}
	if n := reg.Counter("dist_lease_expiries"); n != 3 {
		t.Fatalf("dist_lease_expiries = %d, want 3", n)
	}
}

func TestAllWorkersDeadFailsRemainingChunks(t *testing.T) {
	// Every worker dies on its first grant; once the last one is gone the
	// remaining chunks fail immediately instead of waiting for a worker.
	var peers []Peer
	for i := 0; i < 2; i++ {
		p := newFakePeer(fmt.Sprintf("fragile-%d", i))
		go func() {
			for {
				select {
				case m := <-p.in:
					switch m.T {
					case MsgHello:
						p.out <- &Msg{T: MsgReady, Proto: ProtoVersion}
					case MsgGrant:
						p.Kill() // crash on contact with work
						return
					}
				case <-p.dead:
					return
				}
			}
		}()
		peers = append(peers, p)
	}
	reg := obs.NewRegistry()
	out, err := Run(json.RawMessage(`"mortal"`), Config{
		Runs: 4, ChunkSize: 1,
		Lease: time.Second, Metrics: reg,
	}, peers)
	if err == nil {
		t.Fatal("expected a campaign error")
	}
	if len(out.Failed) != 4 {
		t.Fatalf("Failed = %d chunks, want all 4", len(out.Failed))
	}
	for run := 0; run < 4; run++ {
		if out.RunErrs[run] == nil {
			t.Fatalf("run %d has no error", run)
		}
	}
	if n := reg.Counter("dist_workers_lost"); n != 2 {
		t.Fatalf("dist_workers_lost = %d, want 2", n)
	}
}

func TestDegradesToSingleSurvivor(t *testing.T) {
	// Two of three workers die on their first grant; the campaign still
	// completes, carried by the survivor.
	spec := json.RawMessage(`"survivor"`)
	const runs = 9
	// The steady worker holds its first result until both fragile peers have
	// been granted a chunk; otherwise it can drain the whole campaign before
	// one of them is ever granted (and so never lost).
	var granted sync.WaitGroup
	granted.Add(2)
	var first sync.Once
	peers := []Peer{StartPipe("steady", RunnerFunc(func(spec json.RawMessage, run int) ([]byte, error) {
		first.Do(granted.Wait)
		return testPayload(spec, run), nil
	}))}
	for i := 0; i < 2; i++ {
		p := newFakePeer(fmt.Sprintf("fragile-%d", i))
		go func() {
			for {
				select {
				case m := <-p.in:
					switch m.T {
					case MsgHello:
						p.out <- &Msg{T: MsgReady, Proto: ProtoVersion}
					case MsgGrant:
						granted.Done()
						p.Kill()
						return
					case MsgShutdown:
						p.Close()
						return
					}
				case <-p.dead:
					return
				}
			}
		}()
		peers = append(peers, p)
	}
	reg := obs.NewRegistry()
	out, err := Run(spec, Config{
		Runs: runs, ChunkSize: 2,
		Lease: 2 * time.Second, Metrics: reg,
	}, peers)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	requireSerialEquivalence(t, spec, runs, out)
	if n := reg.Counter("dist_workers_lost"); n != 2 {
		t.Fatalf("dist_workers_lost = %d, want 2", n)
	}
	if n := reg.Counter("dist_leases_reissued"); n < 2 {
		t.Fatalf("dist_leases_reissued = %d, want >= 2", n)
	}
}

// runWithin runs a campaign and fails the test if Run has not returned
// within limit, so a coordinator that hangs fails instead of wedging the
// suite.
func runWithin(t *testing.T, limit time.Duration, spec json.RawMessage, cfg Config, peers []Peer) (*Outcome, error) {
	t.Helper()
	type result struct {
		out *Outcome
		err error
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		out, err := Run(spec, cfg, peers)
		done <- result{out, err}
	}()
	select {
	case r := <-done:
		t.Logf("Run returned after %v", time.Since(start).Round(time.Millisecond))
		return r.out, r.err
	case <-time.After(limit):
		t.Fatalf("Run still blocked after %v", limit)
		return nil, nil
	}
}

// TestSilentHandshakeFailsCampaign: a worker that never answers hello is
// killed one Lease after Run began, alone or beside a good worker.
func TestSilentHandshakeFailsCampaign(t *testing.T) {
	const lease = 50 * time.Millisecond
	t.Run("mute alone", func(t *testing.T) {
		reg := obs.NewRegistry()
		out, err := runWithin(t, lease+time.Second, json.RawMessage(`"mute"`), Config{
			Runs: 3, ChunkSize: 1, Lease: lease, Metrics: reg,
		}, []Peer{newFakePeer("mute")}) // its buffered inbox swallows everything
		if err == nil {
			t.Fatal("a campaign over a mute worker succeeded")
		}
		if len(out.Failed) != 3 {
			t.Fatalf("Failed = %v, want all 3 chunks", out.Failed)
		}
		for _, ce := range out.Failed {
			if !strings.Contains(ce.Reason, "no live workers left") {
				t.Fatalf("chunk %d reason = %q, want no live workers left", ce.Chunk, ce.Reason)
			}
		}
		if n := reg.Counter("dist_workers_lost"); n != 1 {
			t.Fatalf("dist_workers_lost = %d, want 1", n)
		}
	})
	t.Run("mute beside a good worker", func(t *testing.T) {
		// Twenty 20 ms runs outlast the 250 ms handshake deadline, so the
		// mute peer is written off while the good one is still working.
		spec := json.RawMessage(`"mute+good"`)
		const runs = 20
		good := StartPipe("good", RunnerFunc(func(spec json.RawMessage, run int) ([]byte, error) {
			time.Sleep(20 * time.Millisecond)
			return testPayload(spec, run), nil
		}))
		var mu sync.Mutex
		var lost []Event
		reg := obs.NewRegistry()
		out, err := runWithin(t, 10*time.Second, spec, Config{
			Runs: runs, ChunkSize: 1, Lease: 250 * time.Millisecond, Metrics: reg,
			Events: func(e Event) {
				if e.Kind == EvWorkerLost {
					mu.Lock()
					lost = append(lost, e)
					mu.Unlock()
				}
			},
		}, []Peer{newFakePeer("mute"), good})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		requireSerialEquivalence(t, spec, runs, out)
		if n := reg.Counter("dist_workers_lost"); n != 1 {
			t.Fatalf("dist_workers_lost = %d, want 1", n)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(lost) != 1 || lost[0].Worker != 0 || !strings.Contains(lost[0].Err, "no ready") {
			t.Fatalf("worker-lost events = %v, want the mute worker 0 missing its ready", lost)
		}
	})
}

// beatingWorker answers the handshake as a v3 worker, then answers its
// grant with the heartbeats a v2 worker sent — done = 1, 2, 3 … every 5 ms
// — written as raw lines, and never a shard.
type beatingWorker struct {
	r    *io.PipeReader
	w    *io.PipeWriter
	dec  *decoder
	once sync.Once
}

func newBeatingWorker() *beatingWorker {
	r, w := io.Pipe()
	return &beatingWorker{r: r, w: w, dec: newDecoder(r)}
}

func (p *beatingWorker) Send(m *Msg) error {
	switch m.T {
	case MsgHello:
		go fmt.Fprintf(p.w, `{"t":"ready","proto":%d}`+"\n", ProtoVersion)
	case MsgGrant:
		go func() {
			for done := 1; ; done++ {
				if _, err := fmt.Fprintf(p.w, `{"t":"beat","chunk":%d,"done":%d}`+"\n", m.Chunk, done); err != nil {
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}
	return nil
}

func (p *beatingWorker) Recv() (*Msg, error) { return p.dec.next() }
func (p *beatingWorker) Kill() error {
	p.once.Do(func() {
		p.w.CloseWithError(errKilled)
		p.r.CloseWithError(errKilled)
	})
	return nil
}
func (p *beatingWorker) Close() error   { return p.Kill() }
func (p *beatingWorker) String() string { return "beating" }

// TestOnlyShardsExtendTheLease: heartbeats that claim ever more runs done
// keep nothing alive — the lease expires on time and the worker is killed.
func TestOnlyShardsExtendTheLease(t *testing.T) {
	const lease = 50 * time.Millisecond
	reg := obs.NewRegistry()
	out, err := runWithin(t, lease+time.Second, json.RawMessage(`"beats"`), Config{
		Runs: 1, Lease: lease, Metrics: reg,
	}, []Peer{newBeatingWorker()})
	if err == nil || len(out.Failed) != 1 {
		t.Fatalf("Run = %v, Failed %v; want the one chunk failed", err, out.Failed)
	}
	for _, name := range []string{"dist_lease_expiries", "dist_workers_lost"} {
		if n := reg.Counter(name); n != 1 {
			t.Fatalf("%s = %d, want 1", name, n)
		}
	}
}

// leaseHarness builds a coordinator mid-flight: chunk 0 (runs [0,2))
// leased to worker 0, chunk 1 (runs [2,4)) pending, worker 1 idle.
func leaseHarness() (*coord, *obs.Registry) {
	reg := obs.NewRegistry()
	c := &coord{
		cfg: Config{Runs: 4, Metrics: reg}.withDefaults(),
		now: time.Now,
	}
	c.chunks = []*chunk{
		{id: 0, start: 0, count: 2, phase: chunkLeased, worker: 0, attempts: 1, got: make([]shardRec, 2)},
		{id: 1, start: 2, count: 2, worker: -1},
	}
	c.workers = []*wstate{
		{peer: newFakePeer("w0"), phase: wBusy, chunk: 0},
		{peer: newFakePeer("w1"), phase: wIdle, chunk: -1},
	}
	return c, reg
}

func shardFrom(c *coord, worker, chunk, run int) {
	c.handle(envelope{worker: worker, msg: &Msg{T: MsgShard, Chunk: chunk, Run: run, Payload: []byte(fmt.Sprintf(`{"run":%d}`, run))}})
}

func TestShardOutsideLeaseIsAProtocolFault(t *testing.T) {
	cases := []struct {
		name  string
		ships [][2]int // (chunk, run) pairs worker 0 sends
	}{
		{"chunk it does not hold", [][2]int{{1, 2}}},
		{"repeated run", [][2]int{{0, 0}, {0, 0}}},
		{"run outside the chunk", [][2]int{{0, 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, reg := leaseHarness()
			for _, s := range tc.ships {
				shardFrom(c, 0, s[0], s[1])
			}
			if c.workers[0].phase != wDead {
				t.Fatal("faulting worker must be cut off")
			}
			select {
			case <-c.workers[0].peer.(*fakePeer).dead:
			default:
				t.Fatal("faulting worker was not killed")
			}
			if ck := c.chunks[0]; ck.phase != chunkPending || ck.progress != 0 || ck.got != nil {
				t.Fatalf("chunk 0 must return to pending with its shards discarded, got %+v", ck)
			}
			if n := reg.Counter("dist_workers_lost"); n != 1 {
				t.Fatalf("dist_workers_lost = %d, want 1", n)
			}
		})
	}
	t.Run("leaseholder commits on its last shard", func(t *testing.T) {
		c, reg := leaseHarness()
		shardFrom(c, 0, 0, 1) // any order within the chunk
		shardFrom(c, 0, 0, 0)
		if ck := c.chunks[0]; ck.phase != chunkDone {
			t.Fatalf("chunk 0 phase = %v, want done", ck.phase)
		}
		if w := c.workers[0]; w.phase != wIdle || w.chunk != -1 {
			t.Fatalf("worker 0 = %+v, want idle", w)
		}
		if n := reg.Counter("dist_workers_lost"); n != 0 {
			t.Fatalf("dist_workers_lost = %d, want 0", n)
		}
		c.chunks[1].phase = chunkFailed // outcome reads terminal chunks only
		out := c.outcome()
		for run := 0; run < 2; run++ {
			if want := fmt.Sprintf(`{"run":%d}`, run); string(out.Shards[run]) != want {
				t.Fatalf("run %d folded %q, want %q", run, out.Shards[run], want)
			}
		}
	})
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Runs: 100}.withDefaults()
	if c.Lease != DefaultLease || DefaultLease != 15*time.Second || c.RetryCap != 4 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if got := c.chunkSize(4); got != 6 { // 100/(4*4)
		t.Fatalf("chunkSize(4) = %d, want 6", got)
	}
	if got := (Config{Runs: 3}.withDefaults()).chunkSize(8); got != 1 {
		t.Fatalf("small campaign chunkSize = %d, want 1", got)
	}
	if got := (Config{Runs: 5, ChunkSize: 99}.withDefaults()).chunkSize(2); got != 5 {
		t.Fatalf("oversized chunk must clamp to runs, got %d", got)
	}
}
