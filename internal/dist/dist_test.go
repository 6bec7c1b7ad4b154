package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"rpivideo/internal/obs"
)

// runnerFunc adapts a function to the Runner interface.
type runnerFunc func(spec json.RawMessage, run int) ([]byte, error)

func (f runnerFunc) Run(spec json.RawMessage, run int) ([]byte, error) { return f(spec, run) }

// testPayload is the deterministic shard a well-behaved test runner
// produces for one run.
func testPayload(spec json.RawMessage, run int) []byte {
	return []byte(fmt.Sprintf(`{"spec":%s,"run":%d,"v":%d}`, spec, run, run*run+7))
}

// TestMergeEquivalenceAcrossTopologies: at any peer count — more peers than
// runs included — every run's shard lands at its index. Peers run at
// different speeds, so the runs finish out of index order.
func TestMergeEquivalenceAcrossTopologies(t *testing.T) {
	spec := json.RawMessage(`"eqv"`)
	const runs = 10
	for _, peers := range []int{1, 2, 3, 4, 5, 12} {
		t.Run(fmt.Sprintf("w%d", peers), func(t *testing.T) {
			ps := make([]Peer, peers)
			for i := range ps {
				delay := time.Duration(i%3) * time.Millisecond
				ps[i] = StartPipe(fmt.Sprintf("w%d", i), runnerFunc(func(spec json.RawMessage, run int) ([]byte, error) {
					time.Sleep(delay)
					return testPayload(spec, run), nil
				}))
			}
			reg := obs.NewRegistry()
			out, err := Run(spec, Config{Runs: runs, Metrics: reg}, ps)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
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
			if got := reg.Counter("dist_shards_received"); got != runs {
				t.Fatalf("received %d shards, want %d", got, runs)
			}
		})
	}
}

// TestPerRunErrorsLandAtTheirIndices: a run's error or panic is that run's
// recorded error, at its index, and the other runs' shards are untouched.
func TestPerRunErrorsLandAtTheirIndices(t *testing.T) {
	spec := json.RawMessage(`"errs"`)
	bad := map[int]bool{2: true, 5: true}
	runner := runnerFunc(func(spec json.RawMessage, run int) ([]byte, error) {
		if bad[run] {
			return []byte("partial"), fmt.Errorf("run %d exploded", run)
		}
		if run == 6 {
			panic(fmt.Sprintf("run %d panicked hard", run))
		}
		return testPayload(spec, run), nil
	})
	reg := obs.NewRegistry()
	out, err := Run(spec, Config{Runs: 8, Metrics: reg}, []Peer{StartPipe("w0", runner), StartPipe("w1", runner)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for run := 0; run < 8; run++ {
		switch {
		case bad[run]:
			if out.Shards[run] != nil || out.RunErrs[run] == nil || !strings.Contains(out.RunErrs[run].Error(), "exploded") {
				t.Fatalf("run %d: want exploded error and no shard, got %v / %q", run, out.RunErrs[run], out.Shards[run])
			}
		case run == 6:
			if out.Shards[run] != nil || out.RunErrs[run] == nil || !strings.Contains(out.RunErrs[run].Error(), "panicked") {
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
	if n := reg.Counter("dist_shards_received"); n != 5 {
		t.Fatalf("dist_shards_received = %d, want 5", n)
	}
}

// TestRunRejectsNoPeers: a campaign with runs and no peer is an error, an
// empty campaign is an empty outcome.
func TestRunRejectsNoPeers(t *testing.T) {
	if _, err := Run(nil, Config{Runs: 3}, nil); err == nil {
		t.Fatal("Run with no peers accepted a 3-run campaign")
	}
	out, err := Run(nil, Config{}, nil)
	if err != nil || len(out.Shards) != 0 {
		t.Fatalf("empty campaign: %v, %d shards", err, len(out.Shards))
	}
}
