package experiments

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"rpivideo/internal/core"
	"rpivideo/internal/dist"
)

// lineFormat is the part of rpbench's stdout line that describes the
// campaign: the run count and four totals.
const lineFormat = "%d runs, %d packets sent, %d delivered, %d frames played, %d skipped"

// serialReference computes the serial campaign exports for a spec: metrics
// and trace exactly as rpbench's serial -scenario path writes them, and the
// stdout line's numbers taken from the results themselves (core.Summarize),
// not from the registry the fold reads them from.
func serialReference(t *testing.T, spec DistSpec, runs int) (metrics, trace, line []byte) {
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
	sum := core.Summarize(results)
	return m.Bytes(), tr.Bytes(), []byte(fmt.Sprintf(lineFormat,
		sum.Runs, sum.PacketsSent, sum.PacketsDelivered, sum.FramesPlayed, sum.FramesSkipped))
}

// foldOutcome runs FoldDistShards and renders the three comparable outputs.
func foldOutcome(t *testing.T, spec DistSpec, out *dist.Outcome) (metrics, trace, line []byte) {
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
	reg := camp.Registry
	return m.Bytes(), camp.Trace, []byte(fmt.Sprintf(lineFormat, len(out.Shards), reg.Counter("packets_sent"),
		reg.Counter("packets_delivered"), reg.Counter("frames_played"), reg.Counter("frames_skipped")))
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

// TestDistMergeEquivalence proves the headline identity of the shard
// format: a campaign sharded over in-process peers and folded from its
// shards writes the metrics, trace and stdout line of the serial campaign
// byte for byte, at every peer count. bond-rlf and repair-blackout carry
// the max-merged gauges (bond_pathN_down_ms, post_outage_queue_ms_max,
// ramp_up_ms_max): the serial registry is rendered from the campaign
// Summary, the folded one merged from shards, and both must keep each
// gauge's maximum.
func TestDistMergeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run scenario campaigns skipped in -short mode")
	}
	for _, tc := range []struct {
		scenario string
		runs     int
	}{{"urban-gcc", 1}, {"urban-gcc", 16}, {"bond-rlf", 8}, {"repair-blackout", 8}} {
		t.Run(fmt.Sprintf("%s_r%d", tc.scenario, tc.runs), func(t *testing.T) {
			spec := DistSpec{Scenario: tc.scenario}
			rawSpec, _ := json.Marshal(spec)
			wantMetrics, wantTrace, wantLine := serialReference(t, spec, tc.runs)
			for _, n := range []int{1, 2, 3} {
				t.Run(fmt.Sprintf("p%d", n), func(t *testing.T) {
					peers := make([]dist.Peer, n)
					for i := range peers {
						peers[i] = dist.StartPipe(fmt.Sprintf("p%d", i), DistRunner{})
					}
					out, err := dist.Run(rawSpec, dist.Config{Runs: tc.runs}, peers)
					if err != nil {
						t.Fatalf("dist.Run: %v", err)
					}
					gotMetrics, gotTrace, gotLine := foldOutcome(t, spec, out)
					requireSameBytes(t, "metrics", gotMetrics, wantMetrics)
					requireSameBytes(t, "trace", gotTrace, wantTrace)
					requireSameBytes(t, "stdout line", gotLine, wantLine)
				})
			}
		})
	}
}

// shardOf lays two sections out as a worker would.
func shardOf(registry, trace string) []byte {
	raw := make([]byte, shardHeaderLen, shardHeaderLen+len(registry)+len(trace))
	binary.BigEndian.PutUint64(raw[0:], uint64(len(registry)))
	binary.BigEndian.PutUint64(raw[8:], uint64(len(trace)))
	return append(append(raw, registry...), trace...)
}

// Registry sections whose histogram counts cannot be a sketch's — a
// negative bucket, buckets short of the count — and a sound one.
const (
	registryNegativeBucket = `{"counters":{"packets_sent":3},"histograms":{"owd_ms":{"count":3,"sum":4,"buckets":{"0":4,"35":-1}}}}`
	registryShortBuckets   = `{"counters":{"packets_sent":1},"histograms":{"owd_ms":{"count":2,"sum":1,"buckets":{"0":1}}}}`
	registrySound          = `{"counters":{"packets_sent":3},"histograms":{"owd_ms":{"count":3,"sum":4,"min":1,"max":2,"buckets":{"0":1,"35":2}}}}`
)

// TestSplitShard: sections come back as slices of the shard, and lengths
// that do not add up to the body — including ones chosen to wrap a sum —
// are an error, never a panic or a mis-slice.
func TestSplitShard(t *testing.T) {
	raw := shardOf(`{"r":1}`, "line\n")
	reg, tr, err := splitShard(raw)
	if err != nil || string(reg) != `{"r":1}` || string(tr) != "line\n" {
		t.Fatalf("split = %q %q, %v", reg, tr, err)
	}
	if &tr[0] != &raw[len(raw)-len(tr)] {
		t.Error("the trace section is a copy, not a slice of the shard")
	}
	if _, tr, err = splitShard(shardOf("{}", "")); err != nil || len(tr) != 0 {
		t.Errorf("an untraced run's shard: trace %q, err %v", tr, err)
	}

	lengths := func(a, b uint64) []byte {
		bad := shardOf(`{"r":1}`, "line\n")
		binary.BigEndian.PutUint64(bad[0:], a)
		binary.BigEndian.PutUint64(bad[8:], b)
		return bad
	}
	const max = ^uint64(0)
	for name, bad := range map[string][]byte{
		"empty":                 nil,
		"short header":          raw[:shardHeaderLen-1],
		"truncated body":        raw[:len(raw)-1],
		"trailing byte":         append(append([]byte(nil), raw...), 'x'),
		"registry past the end": lengths(13, 0),
		"trace too short":       lengths(7, 4),
		"trace too long":        lengths(7, 6),
		"a+b wraps to 12":       lengths(max-3, 16),
		"all max":               lengths(max, max),
	} {
		if _, _, err := splitShard(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for want, shards := range map[string][][]byte{
		"run 0: shard sections":        {lengths(max-3, 16)},
		"run 1 registry: obs: parsing": {shardOf("{}", ""), shardOf("{", "")},
		"run 2 registry: obs: parsing": {shardOf(registrySound, ""), nil, shardOf(registryShortBuckets, "")},
		"run 0 registry: obs: parsing": {shardOf(registryNegativeBucket, ""), shardOf(registrySound, "")},
	} {
		_, err := FoldDistShards(DistSpec{}, &dist.Outcome{Shards: shards, RunErrs: make([]error, len(shards))})
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("fold of a bad shard: err = %v, want one starting %q", err, want)
		}
	}
}

// FuzzFoldDistShards: a shard is bytes from a peer. Whatever one holds, the
// fold returns an error or a campaign whose registry exports, before and
// after a well-formed run's shard alike.
func FuzzFoldDistShards(f *testing.F) {
	spec := DistSpec{Scenario: "urban-gcc"}
	rawSpec, err := json.Marshal(spec)
	if err != nil {
		f.Fatal(err)
	}
	// Two real runs, their traces cut to the meta line and one event: the
	// fold does not look inside a trace, and the mutator works best on
	// inputs that are mostly registry.
	var real [2][]byte
	for run := range real {
		shard, err := (DistRunner{}).Run(rawSpec, run)
		if err != nil {
			f.Fatal(err)
		}
		reg, trace, err := splitShard(shard)
		if err != nil {
			f.Fatal(err)
		}
		lines := bytes.SplitAfterN(trace, []byte("\n"), 3)
		real[run] = shardOf(string(reg), string(lines[0])+string(lines[1]))
		f.Add(real[run])
	}
	f.Add(real[0][:len(real[0])/2])
	f.Add(shardOf(registryNegativeBucket, ""))
	f.Add(shardOf(`{"histograms":{"x":null,"y":{"count":1,"sum":1,"buckets":{"700":1}}}}`, "{}\n"))

	f.Fuzz(func(t *testing.T, shard []byte) {
		for _, shards := range [][][]byte{{real[0], shard}, {shard, real[1]}} {
			camp, err := FoldDistShards(spec, &dist.Outcome{Shards: shards, RunErrs: make([]error, len(shards))})
			if err != nil {
				continue
			}
			if err := camp.Registry.WriteJSON(io.Discard); err != nil {
				t.Fatalf("a fold that was accepted does not export: %v", err)
			}
		}
	})
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
		if len(camp.Trace) == 0 || camp.Registry.Counter("packets_sent") == 0 {
			b.Fatalf("fold lost data: %d trace bytes, %d packets sent", len(camp.Trace), camp.Registry.Counter("packets_sent"))
		}
	}
}
