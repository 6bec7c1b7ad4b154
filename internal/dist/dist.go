// Package dist is the sharded campaign fold: Run hands a campaign's run
// indices to in-process peers, each peer executes its runs through a Runner,
// and every run's payload (its shard) is stored at its run index. A caller
// that folds the shards in run-index order therefore reproduces a serial
// campaign byte for byte, whatever the peer count and whichever peer ran
// which index.
//
// The campaign spec is opaque bytes the Runner interprets, and a shard is
// opaque bytes the caller folds; experiments.DistRunner and
// experiments.FoldDistShards are the scenario campaign's pair. Campaigns on
// one host run through core's campaign executor; this package keeps the
// shard boundary — a run reduced to bytes and rebuilt from them — checked.
package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"rpivideo/internal/obs"
)

// Runner executes one run of a campaign. The payload must be a pure
// function of (spec, run): that is what lets any peer run any index. An
// error return, or a panic, becomes the run's recorded error.
type Runner interface {
	Run(spec json.RawMessage, run int) ([]byte, error)
}

// Peer is one in-process worker: a Runner that Run drives from a goroutine
// of its own.
type Peer struct {
	name   string
	runner Runner
}

// StartPipe returns the peer that executes runs through runner.
func StartPipe(name string, runner Runner) Peer { return Peer{name: name, runner: runner} }

// Config sizes a campaign.
type Config struct {
	// Runs is the campaign size.
	Runs int
	// Metrics, when non-nil, receives the dist_shards_received and
	// dist_run_errors counters once every run has finished.
	Metrics *obs.Registry
}

// Outcome is a campaign's collected result: one slot per run, in run-index
// order.
type Outcome struct {
	// Shards holds each run's payload; nil where the run errored.
	Shards [][]byte
	// RunErrs holds each run's error; nil where Shards[i] is valid.
	RunErrs []error
}

// Run executes runs 0..cfg.Runs-1 of spec across peers, each peer taking
// the next unclaimed index until none is left, and returns once every run
// has finished.
func Run(spec json.RawMessage, cfg Config, peers []Peer) (*Outcome, error) {
	if cfg.Runs <= 0 {
		return &Outcome{}, nil
	}
	if len(peers) == 0 {
		return nil, errors.New("dist: no peers")
	}
	out := &Outcome{Shards: make([][]byte, cfg.Runs), RunErrs: make([]error, cfg.Runs)}
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				run := int(next.Add(1)) - 1
				if run >= cfg.Runs {
					return
				}
				out.Shards[run], out.RunErrs[run] = runOne(p, spec, run)
			}
		}()
	}
	wg.Wait()
	if cfg.Metrics != nil {
		for _, err := range out.RunErrs {
			if err != nil {
				cfg.Metrics.Add("dist_run_errors", 1)
			} else {
				cfg.Metrics.Add("dist_shards_received", 1)
			}
		}
	}
	return out, nil
}

// runOne executes one run, turning a panic into the run's error.
func runOne(p Peer, spec json.RawMessage, run int) (shard []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			shard, err = nil, fmt.Errorf("%s: run %d panicked: %v", p.name, run, r)
		}
	}()
	shard, err = p.runner.Run(spec, run)
	if err != nil {
		shard = nil
	}
	return shard, err
}
