package experiments

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"rpivideo/internal/core"
	"rpivideo/internal/dist"
	"rpivideo/internal/obs"
)

// DistSpec is the campaign spec a sharded scenario campaign hands its
// peers: the scenario name plus the seed override the serial -scenario path
// applies. The scenario is resolved from its name, so the spec stays tiny
// and core.Config (which carries non-serializable hooks) is never encoded.
type DistSpec struct {
	// Scenario is the experiments scenario name (fleet scenarios are
	// rejected: a fleet shares one cell map and cannot shard by run).
	Scenario string `json:"scenario"`
	// Seed overrides the scenario's pinned base seed when non-zero.
	Seed int64 `json:"seed,omitempty"`
}

// A shard — one run's payload — is the two byte-stable exports the
// serial scenario path derives from a Result, laid end to end behind their
// lengths:
//
//	registry_len trace_len   two big-endian uint64
//	registry                 Result.MetricsRegistry, WriteJSON
//	trace                    the run's JSONL trace, byte-exact
//
// The runner renders each export straight into the one buffer it returns
// and the fold slices them back out, so no export is escaped, re-scanned or
// copied between the two. Shards are per run — never pre-merged — so the
// fold applies the identical float-accumulation grouping a serial campaign
// would. Nothing else is kept: what a campaign prints about itself
// (rpbench's stdout line) is counters of the registry. The format is what a
// transport between hosts would carry.
const shardHeaderLen = 2 * 8

// splitShard slices a shard into its sections. The lengths are the shard's
// own, so they are checked against what is there without arithmetic that a huge
// length could wrap.
func splitShard(raw []byte) (registry, trace []byte, err error) {
	if len(raw) < shardHeaderLen {
		return nil, nil, fmt.Errorf("shard of %d bytes is shorter than its %d-byte header", len(raw), shardHeaderLen)
	}
	a := binary.BigEndian.Uint64(raw[0:])
	b := binary.BigEndian.Uint64(raw[8:])
	body := raw[shardHeaderLen:]
	rest := uint64(len(body))
	if a > rest || b != rest-a {
		return nil, nil, fmt.Errorf("shard sections of %d and %d bytes do not add up to its %d-byte body", a, b, rest)
	}
	return body[:a], body[a:], nil
}

// resolveDistConfig resolves a spec to the run configuration the serial
// path would use: the scenario's config with tracing forced on and the
// seed override applied.
func resolveDistConfig(spec DistSpec) (core.Config, error) {
	sc, err := ScenarioByName(spec.Scenario)
	if err != nil {
		return core.Config{}, err
	}
	if sc.Fleet > 0 {
		return core.Config{}, fmt.Errorf("scenario %s is a fleet scenario: fleets share one cell map and cannot shard by run", sc.Name)
	}
	cfg := sc.Config
	cfg.Trace = true
	if spec.Seed != 0 {
		cfg.Seed = spec.Seed
	}
	return cfg, nil
}

// DistRunner executes the runs of a sharded scenario campaign. Run index r
// maps to the same derived seed the serial campaign
// engine uses — core.DeriveSeed(base, r) — so a shard is byte-identical to
// what the serial path would have produced for that run.
type DistRunner struct{}

// Run implements dist.Runner.
func (DistRunner) Run(rawSpec json.RawMessage, run int) ([]byte, error) {
	var spec DistSpec
	if err := json.Unmarshal(rawSpec, &spec); err != nil {
		return nil, fmt.Errorf("dist spec: %w", err)
	}
	cfg, err := resolveDistConfig(spec)
	if err != nil {
		return nil, err
	}
	c := cfg
	c.Seed = core.DeriveSeed(cfg.Seed, run)
	res, err := core.RunWithTimeout(c, 0) // recovers a run's panic into err
	if err != nil {
		return nil, fmt.Errorf("scenario %s run %d: %w", spec.Scenario, run, err)
	}

	var buf bytes.Buffer
	buf.Grow(shardHeaderLen + 16<<10 + 72*res.Trace.Len()) // a trace line averages 69 bytes
	var lengths [shardHeaderLen]byte
	buf.Write(lengths[:]) // filled in once the sections are written
	if err := res.MetricsRegistry().WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("run %d registry: %w", run, err)
	}
	regEnd := buf.Len()
	if res.Trace != nil {
		if err := obs.WriteJSONL(&buf, core.TraceRunMeta(res, run), res.Trace.Chunks()...); err != nil {
			return nil, fmt.Errorf("run %d trace: %w", run, err)
		}
	}
	shard := buf.Bytes()
	binary.BigEndian.PutUint64(shard[0:], uint64(regEnd-shardHeaderLen))
	binary.BigEndian.PutUint64(shard[8:], uint64(len(shard)-regEnd))
	return shard, nil
}

// DistCampaign is a sharded campaign's folded output: the same two
// exports the serial scenario path produces, rebuilt from per-run shards
// in run-index order.
type DistCampaign struct {
	// Registry is the campaign metrics registry; its WriteJSON output is
	// byte-identical to core.WriteCampaignMetrics over a serial campaign.
	Registry *obs.Registry
	// Trace is the concatenated JSONL trace, byte-identical to
	// core.WriteCampaignTrace over a serial campaign.
	Trace []byte
}

// FoldDistShards rebuilds the campaign outputs from a dist.Run outcome.
// Failed or errored runs are skipped in every export, exactly as the serial
// path skips nil results; their errors stay in the outcome's RunErrs. The
// shards carry everything the fold needs; the spec parameter is what bench/
// (frozen outside benchmark PRs) still passes.
//
// The registries are decoded on the available cores and merged in run
// order (obs.MergeRegistriesJSON), so the first bad shard in run order is
// the error — a section that does not parse ahead of a shard that does not
// split, as a serial fold would meet them.
func FoldDistShards(_ DistSpec, out *dist.Outcome) (*DistCampaign, error) {
	camp := &DistCampaign{Registry: obs.NewRegistry()}
	registries := make([][]byte, len(out.Shards))
	traces := make([][]byte, len(out.Shards))
	var splitErr error
	total := 0
	for run, raw := range out.Shards {
		if raw == nil {
			continue
		}
		reg, trace, err := splitShard(raw)
		if err != nil {
			splitErr = fmt.Errorf("run %d: %w", run, err)
			break
		}
		registries[run], traces[run] = reg, trace
		total += len(trace)
	}
	if run, err := obs.MergeRegistriesJSON(camp.Registry, registries); err != nil {
		return nil, fmt.Errorf("run %d registry: %w", run, err)
	}
	if splitErr != nil {
		return nil, splitErr
	}
	camp.Trace = make([]byte, 0, total)
	for _, trace := range traces {
		camp.Trace = append(camp.Trace, trace...)
	}
	return camp, nil
}
