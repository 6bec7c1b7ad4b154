package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"testing"
	"time"

	"rpivideo/internal/obs"
)

// chaosWorkerEnv gates the re-exec: when set, the test binary is a worker
// process, not a test runner.
const chaosWorkerEnv = "RPIVIDEO_DIST_TEST_WORKER"

// chaosSpec is the campaign spec the chaos worker interprets.
type chaosSpec struct {
	Seed uint64 `json:"seed"`
}

// chaosMix is a splitmix64 step: a cheap deterministic payload function
// whose output depends on every bit of (seed, run).
func chaosMix(seed uint64, run int) uint64 {
	z := seed + uint64(run)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chaosRunner is the worker-side Runner for the chaos tests.
var chaosRunner = RunnerFunc(func(spec json.RawMessage, run int) ([]byte, error) {
	var s chaosSpec
	if err := json.Unmarshal(spec, &s); err != nil {
		return nil, fmt.Errorf("bad spec: %w", err)
	}
	// A touch of real work so a campaign spans long enough for the chaos
	// goroutine to land its kills mid-flight.
	time.Sleep(2 * time.Millisecond)
	return []byte(fmt.Sprintf(`{"run":%d,"v":"%016x"}`, run, chaosMix(s.Seed, run))), nil
})

// TestMain re-execs the test binary as a protocol worker when the gate
// variable is set; otherwise it runs the tests normally.
func TestMain(m *testing.M) {
	if os.Getenv(chaosWorkerEnv) == "1" {
		if err := Serve(os.Stdin, os.Stdout, chaosRunner); err != nil {
			fmt.Fprintln(os.Stderr, "dist test worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startChaosWorkers launches n re-exec'd worker subprocesses and returns
// the peers plus their pids (for out-of-band SIGKILL).
func startChaosWorkers(t *testing.T, n int) ([]Peer, []int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	peers, err := StartProcs(n, func(i int) *exec.Cmd {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), chaosWorkerEnv+"=1")
		return cmd
	})
	if err != nil {
		t.Fatalf("StartProcs: %v", err)
	}
	pids := make([]int, n)
	for i, p := range peers {
		pids[i] = p.(*ProcPeer).cmd.Process.Pid
	}
	t.Cleanup(func() {
		for _, p := range peers {
			p.Kill()
			p.Close()
		}
	})
	return peers, pids
}

// expectedShards computes the serial reference output in-process.
func expectedShards(seed uint64, runs int) [][]byte {
	out := make([][]byte, runs)
	for run := 0; run < runs; run++ {
		out[run] = []byte(fmt.Sprintf(`{"run":%d,"v":"%016x"}`, run, chaosMix(seed, run)))
	}
	return out
}

func requireByteIdentical(t *testing.T, want [][]byte, out *Outcome) {
	t.Helper()
	if err := out.Err(); err != nil {
		t.Fatalf("campaign failed: %v", err)
	}
	for run := range want {
		if out.RunErrs[run] != nil {
			t.Fatalf("run %d errored: %v", run, out.RunErrs[run])
		}
		if !bytes.Equal(out.Shards[run], want[run]) {
			t.Fatalf("run %d diverged:\n got %s\nwant %s", run, out.Shards[run], want[run])
		}
	}
}

// runChaosCampaign executes a subprocess campaign, SIGKILLing kills worker
// processes as chunk completions land, and returns the outcome and metrics.
func runChaosCampaign(t *testing.T, workers, runs, chunk int, seed uint64, kills int) (*Outcome, *obs.Registry) {
	t.Helper()
	peers, pids := startChaosWorkers(t, workers)

	// The chaos injector: each kill is armed by one more committed chunk and
	// lands on a worker that holds a lease at that instant — the most
	// recently granted one, or, when none holds one, the next to be granted —
	// so every kill takes work in flight with it. A fixed victim could be
	// idle between leases when its turn came, and then nothing was
	// re-issued. SIGKILL goes straight to the pid, not through the
	// coordinator's Peer.
	var mu sync.Mutex
	fired, armed := 0, 0 // kills landed, kills waiting for a lease holder
	var holders []int    // workers holding a lease, oldest grant first
	release := func(w int) {
		for i, h := range holders {
			if h == w {
				holders = append(holders[:i], holders[i+1:]...)
				return
			}
		}
	}
	events := func(e Event) {
		mu.Lock()
		defer mu.Unlock()
		switch e.Kind {
		case EvGrant:
			holders = append(holders, e.Worker)
		case EvChunkDone, EvWorkerLost:
			release(e.Worker)
			if e.Kind == EvChunkDone && fired+armed < kills {
				armed++
			}
		}
		if armed > 0 && len(holders) > 0 {
			victim := holders[len(holders)-1]
			release(victim)
			syscall.Kill(pids[victim], syscall.SIGKILL)
			fired++
			armed--
		}
	}

	reg := obs.NewRegistry()
	spec, _ := json.Marshal(chaosSpec{Seed: seed})
	out, err := Run(spec, Config{
		Runs: runs, ChunkSize: chunk,
		Lease: 5 * time.Second, RetryCap: 6, Metrics: reg, Events: events,
	}, peers)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if fired != kills {
		t.Fatalf("only %d of %d chaos kills fired — campaign too short for the injection plan", fired, kills)
	}
	return out, reg
}

// TestChaosSIGKILLByteIdentical is the headline robustness proof: random
// worker processes are SIGKILLed mid-campaign and the report bundle must
// still be byte-identical to the serial reference — at two different
// (worker count, chunk size) topologies.
func TestChaosSIGKILLByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test skipped in -short mode")
	}
	cases := []struct {
		name                 string
		workers, runs, chunk int
		seed                 uint64
		kills                int
	}{
		{name: "w4_c2_kill2", workers: 4, runs: 24, chunk: 2, seed: 0xc0ffee, kills: 2},
		{name: "w3_c1_kill1", workers: 3, runs: 18, chunk: 1, seed: 0xdecade, kills: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, reg := runChaosCampaign(t, tc.workers, tc.runs, tc.chunk, tc.seed, tc.kills)
			requireByteIdentical(t, expectedShards(tc.seed, tc.runs), out)
			if lost := reg.Counter("dist_workers_lost"); lost != int64(tc.kills) {
				t.Fatalf("dist_workers_lost = %d, want %d", lost, tc.kills)
			}
			if n := reg.Counter("dist_leases_reissued"); n < 1 {
				t.Fatalf("dist_leases_reissued = %d, want >= 1 after SIGKILLs", n)
			}
			if done := reg.Counter("dist_chunks_completed"); done != reg.Counter("dist_chunks") {
				t.Fatalf("completed %d of %d chunks", done, reg.Counter("dist_chunks"))
			}
		})
	}
}

// TestChaosCleanRunReissuesNothing pins the control: with no chaos, the
// same subprocess topology completes with zero reissues and zero losses.
func TestChaosCleanRunReissuesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	out, reg := runChaosCampaign(t, 3, 12, 2, 0xfeed, 0)
	requireByteIdentical(t, expectedShards(0xfeed, 12), out)
	for _, zero := range []string{"dist_leases_reissued", "dist_workers_lost", "dist_lease_expiries", "dist_chunks_failed"} {
		if n := reg.Counter(zero); n != 0 {
			t.Fatalf("%s = %d, want 0 in a clean run", zero, n)
		}
	}
}
