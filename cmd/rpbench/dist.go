package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"

	"rpivideo/internal/dist"
	"rpivideo/internal/experiments"
	"rpivideo/internal/obs"
	"rpivideo/internal/obs/analyze"
)

// runWorker is the -worker entrypoint: speak the dist protocol on
// stdin/stdout until the coordinator closes the stream.
func runWorker() error {
	return dist.Serve(os.Stdin, os.Stdout, experiments.DistRunner{})
}

// runDistScenario shards a scenario campaign across c.distWorkers rpbench
// subprocesses (each re-exec'd with -worker) and writes the same exports as
// the serial path, byte-identically. The campaign size is the scenario's own
// Runs unless -runs was given explicitly. so.StatusSink, when non-nil,
// receives the coordinator's live lease status and, after the
// fold, the merged campaign registry.
func runDistScenario(c *cliConfig, sc experiments.Scenario, so experiments.ScenarioOptions, exp scenarioExports) (drifted bool, err error) {
	sink := so.StatusSink
	runs := sc.Runs
	if so.Runs > 0 {
		runs = so.Runs
	}
	spec := experiments.DistSpec{Scenario: sc.Name, Seed: so.Seed, RunTimeout: c.runTimeout}
	rawSpec, err := json.Marshal(spec)
	if err != nil {
		return false, err
	}

	exe, err := os.Executable()
	if err != nil {
		return false, fmt.Errorf("locating the rpbench binary for -worker re-exec: %w", err)
	}
	peers, err := dist.StartProcs(c.distWorkers, func(i int) *exec.Cmd {
		return exec.Command(exe, "-worker")
	})
	if err != nil {
		return false, err
	}

	reg := obs.NewRegistry()
	out, err := dist.Run(rawSpec, dist.Config{
		Runs:      runs,
		ChunkSize: c.distChunk,
		Metrics:   reg,
		Events:    logDistEvent,
		Status:    sink,
	}, peers)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(os.Stderr,
		"rpbench: dist %d workers: %d chunks, %d leases granted (%d reissued), %d shards, %d workers lost, %d leases expired, %d chunks failed\n",
		c.distWorkers, reg.Counter("dist_chunks"), reg.Counter("dist_leases_granted"),
		reg.Counter("dist_leases_reissued"), reg.Counter("dist_shards_received"),
		reg.Counter("dist_workers_lost"), reg.Counter("dist_lease_expiries"),
		reg.Counter("dist_chunks_failed"))
	if err := out.Err(); err != nil {
		return false, err
	}
	if sink != nil {
		// The coordinator's own fault-handling counters (leases, reissues,
		// expiries) join the live surface alongside the campaign fold.
		sink.ObserveRun(reg)
	}
	failed := 0
	for run, rerr := range out.RunErrs {
		if rerr != nil {
			failed++
			fmt.Fprintf(os.Stderr, "rpbench: run %d failed: %v\n", run, rerr)
		}
	}
	if failed > 0 {
		return false, fmt.Errorf("%d of %d runs failed", failed, runs)
	}

	camp, err := experiments.FoldDistShards(spec, out)
	if err != nil {
		return false, err
	}
	if sink != nil {
		// Shard payloads are opaque to the coordinator, so per-run metrics
		// arrive only now, as the folded campaign registry.
		sink.ObserveRun(camp.Registry)
	}
	return exp.write(scenarioOutput{
		registry: camp.Registry,
		writeTrace: func(w io.Writer) error {
			_, err := w.Write(camp.Trace)
			return err
		},
		// The folded trace is byte-identical to a live serial trace, and a
		// replayed bundle is byte-identical to a live one, so replaying the
		// fold gives exactly the serial -report output.
		analyses: func() ([]*analyze.RunAnalysis, error) {
			runsMeta, err := obs.ReadJSONL(bytes.NewReader(camp.Trace))
			if err != nil {
				return nil, err
			}
			return analyze.Trace(runsMeta), nil
		},
		line: campaignLine(sc.Name, runs, camp.Registry),
	})
}

// logDistEvent surfaces the coordinator's notable fault-handling decisions
// on stderr; routine grants and completions stay quiet.
func logDistEvent(e dist.Event) {
	switch e.Kind {
	case dist.EvWorkerLost, dist.EvLeaseExpired, dist.EvChunkFailed, dist.EvRunError:
		fmt.Fprintf(os.Stderr, "rpbench: dist: %s\n", e)
	}
}
