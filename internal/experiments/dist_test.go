package experiments

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rpivideo/internal/core"
	"rpivideo/internal/dist"
	"rpivideo/internal/obs"
)

// distWorkerEnv gates the TestMain re-exec that turns the test binary into
// a real campaign worker subprocess.
const distWorkerEnv = "RPIVIDEO_EXPERIMENTS_DIST_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(distWorkerEnv) == "1" {
		if err := dist.Serve(os.Stdin, os.Stdout, DistRunner{}); err != nil {
			fmt.Fprintln(os.Stderr, "dist worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// serialReference computes the serial campaign exports for a spec: metrics
// and trace exactly as rpbench's serial -scenario path writes them, plus
// the shard-grouped summary reference (single-run summaries merged in
// run-index order — the float grouping the distributed fold uses).
func serialReference(t *testing.T, spec DistSpec, runs int) (metrics, trace, summary []byte) {
	t.Helper()
	cfg, err := resolveDistConfig(spec)
	if err != nil {
		t.Fatalf("resolveDistConfig: %v", err)
	}
	results, errs := core.RunCampaignWithOptions(cfg, runs, core.CampaignOptions{})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("serial run %d: %v", i, err)
		}
	}
	var m, tr bytes.Buffer
	if err := core.WriteCampaignMetrics(&m, results); err != nil {
		t.Fatalf("serial metrics: %v", err)
	}
	if err := core.WriteCampaignTrace(&tr, results); err != nil {
		t.Fatalf("serial trace: %v", err)
	}
	ref := &core.Summary{}
	for _, r := range results {
		ref.Merge(core.Summarize([]*core.Result{r}))
	}
	sum, err := json.Marshal(ref)
	if err != nil {
		t.Fatalf("serial summary: %v", err)
	}
	return m.Bytes(), tr.Bytes(), sum
}

// foldOutcome runs FoldDistShards and renders the three comparable exports.
func foldOutcome(t *testing.T, spec DistSpec, out *dist.Outcome) (metrics, trace, summary []byte) {
	t.Helper()
	for run, err := range out.RunErrs {
		if err != nil {
			t.Fatalf("run %d failed: %v", run, err)
		}
	}
	camp, err := FoldDistShards(spec, out)
	if err != nil {
		t.Fatalf("FoldDistShards: %v", err)
	}
	var m bytes.Buffer
	if err := camp.Registry.WriteJSON(&m); err != nil {
		t.Fatalf("fold metrics: %v", err)
	}
	sum, err := json.Marshal(camp.Summary)
	if err != nil {
		t.Fatalf("fold summary: %v", err)
	}
	return m.Bytes(), camp.Trace, sum
}

func requireSameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		limit := func(b []byte) string {
			if len(b) > 400 {
				return string(b[:400]) + "…"
			}
			return string(b)
		}
		t.Fatalf("%s diverged from the serial reference\n got (%d bytes): %s\nwant (%d bytes): %s",
			what, len(got), limit(got), len(want), limit(want))
	}
}

// TestDistMergeEquivalence proves the headline identity with in-process
// workers: a sharded campaign's metrics, trace and summary are
// byte-identical to the serial campaign's, at multiple topologies.
func TestDistMergeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run scenario campaigns skipped in -short mode")
	}
	spec := DistSpec{Scenario: "urban-gcc", Seed: 99}
	const runs = 5
	rawSpec, _ := json.Marshal(spec)
	wantMetrics, wantTrace, wantSummary := serialReference(t, spec, runs)

	for _, tc := range []struct{ workers, chunk int }{{3, 1}, {2, 2}} {
		t.Run(fmt.Sprintf("w%d_c%d", tc.workers, tc.chunk), func(t *testing.T) {
			peers := make([]dist.Peer, tc.workers)
			for i := range peers {
				peers[i] = dist.StartPipe(fmt.Sprintf("w%d", i), DistRunner{})
			}
			out, err := dist.Run(rawSpec, dist.Config{Runs: runs, ChunkSize: tc.chunk}, peers)
			if err != nil {
				t.Fatalf("dist.Run: %v", err)
			}
			gotMetrics, gotTrace, gotSummary := foldOutcome(t, spec, out)
			requireSameBytes(t, "metrics", gotMetrics, wantMetrics)
			requireSameBytes(t, "trace", gotTrace, wantTrace)
			requireSameBytes(t, "summary", gotSummary, wantSummary)
		})
	}
}

// TestDistChaosScenario is the end-to-end robustness proof on the real
// simulation: subprocess workers run the urban-gcc scenario, one is
// SIGKILLed mid-campaign, and the full report bundle must still come out
// byte-identical to the serial reference — at two (workers, chunk-size)
// topologies.
func TestDistChaosScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos campaigns skipped in -short mode")
	}
	spec := DistSpec{Scenario: "urban-gcc", Seed: 7}
	const runs = 6
	rawSpec, _ := json.Marshal(spec)
	wantMetrics, wantTrace, wantSummary := serialReference(t, spec, runs)
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}

	for _, tc := range []struct{ workers, chunk int }{{4, 2}, {3, 1}} {
		t.Run(fmt.Sprintf("w%d_c%d", tc.workers, tc.chunk), func(t *testing.T) {
			peers, err := dist.StartProcs(tc.workers, func(i int) *exec.Cmd {
				cmd := exec.Command(exe)
				cmd.Env = append(os.Environ(), distWorkerEnv+"=1")
				return cmd
			})
			if err != nil {
				t.Fatalf("StartProcs: %v", err)
			}
			pids := make([]int, len(peers))
			for i, p := range peers {
				pids[i] = p.(*dist.ProcPeer).Pid()
			}
			t.Cleanup(func() {
				for _, p := range peers {
					p.Kill()
					p.Close()
				}
			})

			// SIGKILL the worker that just received the second first-attempt
			// grant: it provably holds an uncommitted lease (the grant is
			// microseconds old; a scenario run takes milliseconds), so the
			// campaign cannot finish without the coordinator observing the
			// death and re-issuing the chunk. Killing an idle worker instead
			// would race campaign completion against EOF detection.
			var once sync.Once
			grants := 0
			reg := obs.NewRegistry()
			out, err := dist.Run(rawSpec, dist.Config{
				Runs: runs, ChunkSize: tc.chunk,
				Lease: 10 * time.Second, Backoff: 2 * time.Millisecond, BackoffMax: 10 * time.Millisecond,
				Metrics: reg,
				Events: func(e dist.Event) {
					if e.Kind == dist.EvGrant && e.Attempt == 1 {
						grants++
						if grants == 2 {
							once.Do(func() { syscall.Kill(pids[e.Worker], syscall.SIGKILL) })
						}
					}
				},
			}, peers)
			if err != nil {
				t.Fatalf("dist.Run: %v", err)
			}
			gotMetrics, gotTrace, gotSummary := foldOutcome(t, spec, out)
			requireSameBytes(t, "metrics", gotMetrics, wantMetrics)
			requireSameBytes(t, "trace", gotTrace, wantTrace)
			requireSameBytes(t, "summary", gotSummary, wantSummary)
			if lost := reg.Counter("dist_workers_lost"); lost != 1 {
				t.Fatalf("dist_workers_lost = %d, want 1", lost)
			}
			if n := reg.Counter("dist_leases_reissued"); n < 1 {
				t.Fatalf("dist_leases_reissued = %d, want >= 1 after the SIGKILL", n)
			}
		})
	}
}

// shardOf lays three sections out as a worker would.
func shardOf(registry, summary, trace string) []byte {
	raw := make([]byte, shardHeaderLen, shardHeaderLen+len(registry)+len(summary)+len(trace))
	binary.BigEndian.PutUint64(raw[0:], uint64(len(registry)))
	binary.BigEndian.PutUint64(raw[8:], uint64(len(summary)))
	binary.BigEndian.PutUint64(raw[16:], uint64(len(trace)))
	return append(append(append(raw, registry...), summary...), trace...)
}

// TestSplitShard: sections come back as slices of the shard, and lengths
// that do not add up to the body — including ones chosen to wrap a sum —
// are an error, never a panic or a mis-slice.
func TestSplitShard(t *testing.T) {
	raw := shardOf(`{"r":1}`, `{"s":2}`, "line\n")
	reg, sum, tr, err := splitShard(raw)
	if err != nil || string(reg) != `{"r":1}` || string(sum) != `{"s":2}` || string(tr) != "line\n" {
		t.Fatalf("split = %q %q %q, %v", reg, sum, tr, err)
	}
	if &tr[0] != &raw[len(raw)-len(tr)] {
		t.Error("the trace section is a copy, not a slice of the shard")
	}
	if _, _, tr, err = splitShard(shardOf("{}", "{}", "")); err != nil || len(tr) != 0 {
		t.Errorf("an untraced run's shard: trace %q, err %v", tr, err)
	}

	lengths := func(a, b, c uint64) []byte {
		bad := shardOf(`{"r":1}`, `{"s":2}`, "line\n")
		binary.BigEndian.PutUint64(bad[0:], a)
		binary.BigEndian.PutUint64(bad[8:], b)
		binary.BigEndian.PutUint64(bad[16:], c)
		return bad
	}
	const max = ^uint64(0)
	for name, bad := range map[string][]byte{
		"empty":                 nil,
		"short header":          raw[:shardHeaderLen-1],
		"truncated body":        raw[:len(raw)-1],
		"trailing byte":         append(append([]byte(nil), raw...), 'x'),
		"registry past the end": lengths(20, 0, 0),
		"summary past the end":  lengths(7, 13, 0),
		"trace too short":       lengths(7, 7, 4),
		"a+b wraps to 19":       lengths(max-4, 24, 0),
		"a+b+c wraps to 19":     lengths(19, max, 1),
		"all max":               lengths(max, max, max),
	} {
		if _, _, _, err := splitShard(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := FoldDistShards(DistSpec{Scenario: "urban-gcc"}, &dist.Outcome{
		Shards: [][]byte{lengths(max-4, 24, 0)}, RunErrs: make([]error, 1),
	}); err == nil || !strings.Contains(err.Error(), "run 0") {
		t.Errorf("fold of a corrupt shard: err = %v, want one naming run 0", err)
	}
}

// BenchmarkFoldDistShards folds 48 shards of a recorded repair-blackout
// run — the sweep the repository benchmark shards — into campaign exports.
func BenchmarkFoldDistShards(b *testing.B) {
	spec := DistSpec{Scenario: "repair-blackout"}
	rawSpec, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	out := &dist.Outcome{Shards: make([][]byte, 48), RunErrs: make([]error, 48)}
	var total int64
	for run := range out.Shards {
		if out.Shards[run], err = (DistRunner{}).Run(rawSpec, run%4); err != nil {
			b.Fatal(err)
		}
		total += int64(len(out.Shards[run]))
	}
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		camp, err := FoldDistShards(spec, out)
		if err != nil {
			b.Fatal(err)
		}
		if len(camp.Trace) == 0 || camp.Summary.Runs != 48 {
			b.Fatalf("fold lost data: %d trace bytes, %d runs", len(camp.Trace), camp.Summary.Runs)
		}
	}
}
