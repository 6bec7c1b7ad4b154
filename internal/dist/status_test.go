package dist

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"rpivideo/internal/obs"
)

// captureSink records every published snapshot, standing in for the
// telemetry hub without the HTTP layer.
type captureSink struct {
	mu    sync.Mutex
	snaps []obs.StatusSnapshot
	regs  int
}

func (c *captureSink) PublishStatus(s obs.StatusSnapshot) {
	c.mu.Lock()
	c.snaps = append(c.snaps, s)
	c.mu.Unlock()
}

func (c *captureSink) ObserveRun(*obs.Registry) {
	c.mu.Lock()
	c.regs++
	c.mu.Unlock()
}

// TestCoordinatorStatusSink: the coordinator publishes progress snapshots
// from the first loop iteration through a terminal Done snapshot, with the
// worker table tracking the lease state machine.
func TestCoordinatorStatusSink(t *testing.T) {
	spec := json.RawMessage(`"status"`)
	const runs, workers = 8, 3
	peers := make([]Peer, workers)
	for i := range peers {
		peers[i] = StartPipe(fmt.Sprintf("w%d", i), okRunner())
	}
	sink := &captureSink{}
	out, err := Run(spec, Config{Runs: runs, ChunkSize: 2, Status: sink}, peers)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	requireSerialEquivalence(t, spec, runs, out)

	sink.mu.Lock()
	snaps := sink.snaps
	sink.mu.Unlock()
	if len(snaps) < 2 {
		t.Fatalf("published %d snapshots, want at least an initial and a terminal one", len(snaps))
	}
	first, last := snaps[0], snaps[len(snaps)-1]
	if first.Done {
		t.Error("initial snapshot already Done")
	}
	if !last.Done {
		t.Errorf("terminal snapshot not Done: %+v", last)
	}
	if last.RunsDone != runs || last.RunsTotal != runs {
		t.Errorf("terminal progress %d/%d, want %d/%d", last.RunsDone, last.RunsTotal, runs, runs)
	}
	if last.RunErrors != 0 {
		t.Errorf("terminal run errors %d, want 0", last.RunErrors)
	}
	validStates := map[string]bool{"starting": true, "idle": true, "busy": true, "dead": true}
	for _, s := range snaps {
		if s.Mode != "dist" {
			t.Fatalf("snapshot mode %q, want dist", s.Mode)
		}
		if s.SimRate != 0 {
			t.Fatalf("dist snapshot claims a sim rate (%g); shard payloads are opaque", s.SimRate)
		}
		if len(s.Workers) != workers {
			t.Fatalf("snapshot has %d workers, want %d", len(s.Workers), workers)
		}
		for _, w := range s.Workers {
			if !validStates[w.State] {
				t.Fatalf("worker %d in unknown state %q", w.Worker, w.State)
			}
		}
		if s.RunsDone < 0 || s.RunsDone > runs {
			t.Fatalf("runs done %d outside [0, %d]", s.RunsDone, runs)
		}
	}
}

// TestCoordinatorStatusRunErrors: failed runs surface in the terminal
// snapshot's run_errors count.
func TestCoordinatorStatusRunErrors(t *testing.T) {
	spec := json.RawMessage(`"status-err"`)
	const runs = 4
	runner := RunnerFunc(func(spec json.RawMessage, run int) ([]byte, error) {
		if run == 2 {
			return nil, fmt.Errorf("boom on run %d", run)
		}
		return testPayload(spec, run), nil
	})
	sink := &captureSink{}
	out, err := Run(spec, Config{Runs: runs, ChunkSize: 1, Status: sink}, []Peer{StartPipe("w0", runner)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.RunErrs[2] == nil {
		t.Fatal("run 2 should have errored")
	}
	sink.mu.Lock()
	last := sink.snaps[len(sink.snaps)-1]
	sink.mu.Unlock()
	if last.RunErrors != 1 {
		t.Errorf("terminal run_errors = %d, want 1", last.RunErrors)
	}
	if !last.Done || last.RunsDone != runs {
		t.Errorf("terminal snapshot %+v, want done %d/%d (errored runs still complete)", last, runs, runs)
	}
}
