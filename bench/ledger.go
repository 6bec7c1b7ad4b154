package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/core"
	"rpivideo/internal/metrics"
	"rpivideo/internal/obs"
	"rpivideo/internal/obs/analyze"
	"rpivideo/internal/sim"
)

// perLayer lists the per-layer metrics the traced pass reports, in the
// order it prints them. Counts come from the traced run's Result and
// trace and repeat exactly; ns_per_* and busy_s come from the replay
// drivers; *_ms_* and target_mbps_mean are simulated values and must not
// move under a speed-only change. BENCHMARK.json repeats this table; a
// test keeps the two in step.
var perLayer = []metricDef{
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.busy_s", Unit: "s", Better: "lower"},
	{Name: "sim.allocs_per_event", Unit: "1/event", Better: "lower"},

	{Name: "flight.ats", Unit: "count", Better: "lower"},
	{Name: "flight.ns_per_at", Unit: "ns", Better: "lower"},

	{Name: "cell.steps", Unit: "count", Better: "lower"},
	{Name: "cell.ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "cell.busy_s", Unit: "s", Better: "lower"},
	{Name: "cell.handovers", Unit: "count", Better: "lower"},
	{Name: "cell.rlfs", Unit: "count", Better: "lower"},
	{Name: "cell.contend_s", Unit: "s", Better: "lower"},
	{Name: "cell.contend_epochs", Unit: "count", Better: "lower"},

	{Name: "link.pkts", Unit: "count", Better: "lower"},
	{Name: "link.ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "link.busy_s", Unit: "s", Better: "lower"},
	{Name: "link.allocs_per_pkt", Unit: "1/pkt", Better: "lower"},
	{Name: "link.drops_overflow", Unit: "count", Better: "lower"},
	{Name: "link.drops_radio", Unit: "count", Better: "lower"},
	{Name: "link.drops_stale", Unit: "count", Better: "lower"},
	{Name: "link.queue_delay_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "link.queue_delay_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "link.owd_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "link.owd_ms_p99", Unit: "ms", Better: "lower"},

	{Name: "rtp.pkts", Unit: "count", Better: "lower"},
	{Name: "rtp.packetize_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "rtp.depacketize_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "rtp.feedbacks", Unit: "count", Better: "lower"},
	{Name: "rtp.twcc_ns_per_feedback", Unit: "ns", Better: "lower"},
	{Name: "rtp.ccfb_ns_per_feedback", Unit: "ns", Better: "lower"},
	{Name: "rtp.busy_s", Unit: "s", Better: "lower"},

	{Name: "cc.pacer_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "cc.watchdog_episodes", Unit: "count", Better: "lower"},

	{Name: "gcc.feedbacks", Unit: "count", Better: "lower"},
	{Name: "gcc.acks", Unit: "count", Better: "lower"},
	{Name: "gcc.ns_per_ack", Unit: "ns", Better: "lower"},
	{Name: "gcc.busy_s", Unit: "s", Better: "lower"},
	{Name: "gcc.overuse_signals", Unit: "count", Better: "lower"},
	{Name: "gcc.target_mbps_mean", Unit: "Mbit/s", Better: "higher"},

	{Name: "scream.feedbacks", Unit: "count", Better: "lower"},
	{Name: "scream.acks", Unit: "count", Better: "lower"},
	{Name: "scream.ns_per_ack", Unit: "ns", Better: "lower"},
	{Name: "scream.busy_s", Unit: "s", Better: "lower"},
	{Name: "scream.losses_window", Unit: "count", Better: "lower"},
	{Name: "scream.losses_inband", Unit: "count", Better: "lower"},
	{Name: "scream.target_mbps_mean", Unit: "Mbit/s", Better: "higher"},

	{Name: "video.frames_encoded", Unit: "count", Better: "higher"},
	{Name: "video.encode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "video.player_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "video.busy_s", Unit: "s", Better: "lower"},
	{Name: "video.frames_played", Unit: "count", Better: "higher"},
	{Name: "video.frames_skipped", Unit: "count", Better: "lower"},
	{Name: "video.stalls", Unit: "count", Better: "lower"},
	{Name: "video.playback_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "video.playback_ms_p99", Unit: "ms", Better: "lower"},

	{Name: "repair.pkts", Unit: "count", Better: "lower"},
	{Name: "repair.detector_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "repair.cache_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "repair.busy_s", Unit: "s", Better: "lower"},
	{Name: "repair.nacks", Unit: "count", Better: "lower"},
	{Name: "repair.rtx_sent", Unit: "count", Better: "lower"},
	{Name: "repair.repaired", Unit: "count", Better: "higher"},
	{Name: "repair.abandoned", Unit: "count", Better: "lower"},
	{Name: "repair.denied", Unit: "count", Better: "lower"},
	{Name: "repair.useful_ratio", Unit: "1", Better: "higher"},

	{Name: "bond.routes", Unit: "count", Better: "lower"},
	{Name: "bond.route_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "bond.reorder_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "bond.busy_s", Unit: "s", Better: "lower"},
	{Name: "bond.duplicates_suppressed", Unit: "count", Better: "lower"},
	{Name: "bond.reorder_late", Unit: "count", Better: "lower"},
	{Name: "bond.reorder_forced", Unit: "count", Better: "lower"},
	{Name: "bond.switches", Unit: "count", Better: "lower"},
	{Name: "bond.useful_ratio", Unit: "1", Better: "higher"},

	{Name: "fault.outages", Unit: "count", Better: "lower"},
	{Name: "fault.outage_s", Unit: "s", Better: "lower"},

	{Name: "metrics.samples", Unit: "count", Better: "lower"},
	{Name: "metrics.dist_ns_per_add", Unit: "ns", Better: "lower"},
	{Name: "metrics.sketch_ns_per_add", Unit: "ns", Better: "lower"},
	{Name: "metrics.sketch_merge_us", Unit: "us", Better: "lower"},
	{Name: "metrics.busy_s", Unit: "s", Better: "lower"},

	{Name: "obs.trace_events", Unit: "count", Better: "lower"},
	{Name: "obs.emit_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "obs.trace_overhead_ratio", Unit: "1", Better: "lower"},
	{Name: "obs.trace_bytes", Unit: "B", Better: "lower"},
	{Name: "obs.jsonl_write_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "obs.jsonl_read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "obs.registry_merge_us", Unit: "us", Better: "lower"},
	{Name: "obs.analyze_s", Unit: "s", Better: "lower"},
	{Name: "obs.export_s", Unit: "s", Better: "lower"},

	{Name: "core.round_wall_s_p50", Unit: "s", Better: "lower"},
	{Name: "core.round_wall_s_iqr", Unit: "s", Better: "lower"},
	{Name: "core.round_wall_s_max", Unit: "s", Better: "lower"},
	{Name: "core.wall_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "core.unattributed_share", Unit: "1", Better: "lower"},
	{Name: "core.result_registry_ms", Unit: "ms", Better: "lower"},
	{Name: "core.summarize_ms", Unit: "ms", Better: "lower"},
	{Name: "core.campaign_s", Unit: "s", Better: "lower"},
	{Name: "core.campaign_efficiency", Unit: "1", Better: "higher"},
	{Name: "core.fleet_s", Unit: "s", Better: "lower"},
	{Name: "core.fleet_efficiency", Unit: "1", Better: "higher"},
	{Name: "core.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "core.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "core.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "core.bench_trace_overhead_ratio", Unit: "1", Better: "lower"},

	{Name: "dist.sweep_s", Unit: "s", Better: "lower"},
	{Name: "dist.fold_s", Unit: "s", Better: "lower"},
	{Name: "dist.overhead_ratio", Unit: "1", Better: "lower"},
	{Name: "dist.shard_bytes", Unit: "B", Better: "lower"},
	{Name: "dist.reissues", Unit: "count", Better: "lower"},
}

// tracedRoundsUntraced is how many untraced rounds the traced pass times
// first, for the round-wall spread and the tracing-overhead baseline.
const tracedRoundsUntraced = 3

// tracedPass measures one workload layer by layer. It times a few untraced
// rounds, re-runs one round with the product tracer on, takes the
// deterministic work counts from that run's Result and trace, and replays
// the traced inputs into each layer's public API under benchmark spans.
func tracedPass(w workload, o options) (*passFile, error) {
	var ops opCounter
	verifiedWarmUp(w, o.seed, o.scale, &ops)

	var walls []float64
	var gcCycles uint32
	var gcPauseNs uint64
	var pktsPerRound float64
	budget := time.Duration(o.seconds) * time.Second / 3
	var spent time.Duration
	for r := 0; r < tracedRoundsUntraced || spent < budget; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, out := timedRound(w, core.DeriveSeed(o.seed, r), o.scale)
		runtime.ReadMemStats(&after)
		ops.add(out)
		walls = append(walls, st.WallS)
		spent += time.Duration(st.WallS * float64(time.Second))
		gcCycles += after.NumGC - before.NumGC
		gcPauseNs += after.PauseTotalNs - before.PauseTotalNs
		pktsPerRound = float64(out.packets())
	}

	// The traced round repeats round 0's seed, so walls[0] is its untraced
	// twin.
	seed := core.DeriveSeed(o.seed, 0)
	rec := newRecorder(w.Name, len(walls))
	round := rec.Start("core", "traced-round", -1)
	subject, runWall, out := tracedRound(w, seed, o.scale)
	var in *traceInput
	if subject != nil && subject.Trace != nil {
		in = digestTrace(subject.Trace.Events(), subject.Duration)
	}
	rec.End(round)
	tracedWall := float64(rec.Spans()[round].EndNs-rec.Spans()[round].StartNs) / 1e9
	out.finish()
	ops.add(out)
	if in == nil {
		return nil, fmt.Errorf("%s: the traced round produced no trace: %s", w.Name, strings.Join(out.failures, "; "))
	}

	root := rec.Start("bench", "replay", -1)
	rp := &replay{cfg: subject.Config, res: subject, in: in, rec: rec, root: root,
		m: make(map[string]float64), busy: make(map[string]float64)}
	rp.replaySim()
	rp.replayFlight()
	rp.replayCell()
	rp.replayLink()
	rp.replayPacer()
	rp.replayGCC()
	rp.replayScream()
	rp.mediaPath()
	rp.replayMetrics()
	rp.replayEmit()
	rp.resultCounts()
	rp.exports(out)
	rp.orchestration(seed, o.scale, out)
	rec.End(root)

	m := rp.m
	q1, p50, q3 := quartiles(walls)
	m["core.round_wall_s_p50"] = p50
	m["core.round_wall_s_iqr"] = q3 - q1
	m["core.round_wall_s_max"] = percentile(walls, 100)
	if pktsPerRound > 0 {
		m["core.wall_ns_per_pkt"] = p50 * 1e9 / pktsPerRound
	}
	// What the layer replays account for, against the traced subject
	// run's own wall.
	var attributed float64
	for _, s := range rp.busy {
		attributed += s
	}
	m["core.unattributed_share"] = 1 - attributed/runWall
	if out.flight != nil {
		// Only a flight round has an untraced twin: campaign runs are
		// always traced, fleet runs never.
		m["obs.trace_overhead_ratio"] = runWall/walls[0] - 1
		m["core.bench_trace_overhead_ratio"] = tracedWall/p50 - 1
	}
	m["core.peak_rss_mb"] = peakRSSMB()
	m["core.gc_cycles"] = float64(gcCycles)
	m["core.gc_pause_ms"] = float64(gcPauseNs) / 1e6

	pf := &passFile{Workload: w.Name, Seed: o.seed, Scale: float64(o.scale),
		Attempted: ops.attempted, Failed: ops.failed, Failures: ops.failures}
	for _, d := range perLayer {
		v := m[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: per-layer metric %s is not finite", w.Name, d.Name)
		}
		pf.Metrics = append(pf.Metrics, reported{Name: d.Name, Unit: d.Unit, Value: v, N: 1, Median: v, Q1: v, Q3: v})
	}
	// The replay root's self time is what the harness spent outside every
	// layer span: building inputs, not measuring.
	pf.Notes = append(pf.Notes, fmt.Sprintf("spans: %d; replay harness self time %.3f s of %.3f s",
		len(rec.Spans()), float64(selfTimes(rec.Spans())[root])/1e9,
		float64(rec.Spans()[root].EndNs-rec.Spans()[root].StartNs)/1e9))
	if err := flushSpans(o, rec.Spans()); err != nil {
		return nil, err
	}
	return pf, nil
}

// packets counts the media packets a round's runs sent.
func (o *roundOut) packets() int {
	switch {
	case o.flight != nil:
		return o.flight.PacketsSent
	case o.sweep != nil && o.sweep.summary != nil:
		return 2 * o.sweep.summary.PacketsSent // phases A and B
	case o.fleet != nil:
		return o.fleet.Summary.PacketsSent
	}
	return 0
}

// tracedRound runs one round with the product tracer on and returns the
// run whose trace feeds the layer replays, with that run's own wall: the
// flight itself, a solo repeat of the campaign's run 0, or — fleets keep no
// per-UAV trace — a solo traced flight of the fleet's UAV 0 over the
// fleet's cell map.
func tracedRound(w workload, seed int64, sc scale) (subject *core.Result, wallS float64, out *roundOut) {
	var cfg core.Config
	if w.flight != nil {
		cfg = w.flight(seed, sc)
	} else {
		out = w.run(seed, sc)
		switch {
		case out.sweep != nil && len(out.sweep.results) > 0:
			cfg = out.sweep.results[0].Config
		case out.fleet != nil:
			cfg = fleetConfig(seed, sc).Config
			cfg.Seed = core.DeriveSeed(seed, 0)
			cfg.Cells = out.fleet.Deployment
		default:
			return nil, 0, out // the round failed outright
		}
	}
	cfg.Trace = true
	t0 := time.Now()
	solo := runFlight(cfg)
	wallS = time.Since(t0).Seconds()
	if out == nil {
		return solo.flight, wallS, solo
	}
	out.ops += solo.ops
	out.failures = append(out.failures, solo.failures...)
	return solo.flight, wallS, out
}

// mediaPath runs the media pipeline and bond manager replays and files
// their stage times under the layers they belong to.
func (r *replay) mediaPath() {
	p := r.replayPipeline()
	m := r.m

	m["rtp.pkts"] = float64(p.packets)
	m["rtp.packetize_ns_per_pkt"] = perOp(p.packetizeS, p.packets)
	m["rtp.depacketize_ns_per_pkt"] = perOp(p.depacketizeS, p.arrivals)
	m["rtp.feedbacks"] = float64(len(r.in.cc))
	switch r.cfg.CC {
	case core.CCGCC:
		m["rtp.twcc_ns_per_feedback"] = perOp(p.feedbackS, p.feedbacks)
	case core.CCSCReAM:
		m["rtp.ccfb_ns_per_feedback"] = perOp(p.feedbackS, p.feedbacks)
	}
	r.busy["rtp"] = p.packetizeS + p.depacketizeS + p.feedbackS
	m["rtp.busy_s"] = r.busy["rtp"]

	// The sender's own per-frame work — encoder, frame registry, send queue,
	// pacer — is what its replay took beyond its blank twin and beyond the
	// packetizer, which the rtp layer already accounts for.
	sender := over(p.senderWallS, p.senderBlankS+p.packetizeS)
	player := over(p.playerWallS, p.playerBlankS)
	m["video.frames_encoded"] = float64(p.frames)
	m["video.encode_ns_per_frame"] = perOp(sender, p.frames)
	m["video.player_ns_per_pkt"] = perOp(player, p.arrivals)
	r.busy["video"] = sender + player
	m["video.busy_s"] = r.busy["video"]

	if r.cfg.Repair.Enabled {
		m["repair.pkts"] = float64(p.arrivals)
		m["repair.detector_ns_per_pkt"] = perOp(p.detectorS, p.arrivals)
		m["repair.cache_ns_per_pkt"] = perOp(p.cacheS, p.stores)
		r.busy["repair"] = p.detectorS + p.cacheS
		m["repair.busy_s"] = r.busy["repair"]
	}
	if r.cfg.Bond.Enabled() {
		mgrS, routes := r.replayBondManager()
		m["bond.routes"] = float64(routes)
		m["bond.route_ns_per_pkt"] = perOp(mgrS, routes)
		m["bond.reorder_ns_per_pkt"] = perOp(p.reorderS, p.arrivals)
		r.busy["bond"] = mgrS + p.reorderS
		m["bond.busy_s"] = r.busy["bond"]
	}
}

// resultCounts files the counts and simulated statistics that come
// straight from the traced run's Result.
func (r *replay) resultCounts() {
	res, m := r.res, r.m
	m["link.queue_delay_ms_p50"] = logHistQuantile(res.Telemetry.LogHistogram(core.TelemetryQueueDelay), 0.50)
	m["link.queue_delay_ms_p99"] = logHistQuantile(res.Telemetry.LogHistogram(core.TelemetryQueueDelay), 0.99)
	if res.OWDms.N() > 0 {
		m["link.owd_ms_p50"] = res.OWDms.Quantile(0.50)
		m["link.owd_ms_p99"] = res.OWDms.Quantile(0.99)
	}
	m["video.frames_played"] = float64(res.FramesPlayed)
	m["video.frames_skipped"] = float64(res.FramesSkipped)
	m["video.stalls"] = float64(len(res.Stalls))
	if res.PlaybackMs.N() > 0 {
		m["video.playback_ms_p50"] = res.PlaybackMs.Quantile(0.50)
		m["video.playback_ms_p99"] = res.PlaybackMs.Quantile(0.99)
	}
	m["repair.nacks"] = float64(res.NacksSent)
	m["repair.rtx_sent"] = float64(res.RtxSent)
	m["repair.repaired"] = float64(res.PacketsRepaired)
	m["repair.abandoned"] = float64(res.RepairAbandoned)
	m["repair.denied"] = float64(res.RepairDenied)
	if res.RtxSent > 0 {
		m["repair.useful_ratio"] = float64(res.PacketsRepaired) / float64(res.RtxSent)
	}
	m["bond.duplicates_suppressed"] = float64(res.MultipathDuplicates)
	m["bond.reorder_late"] = float64(res.BondReorderLate)
	m["bond.reorder_forced"] = float64(res.BondReorderForced)
	m["bond.switches"] = float64(res.BondSwitches)
	var copies, first int64
	for _, p := range res.BondPaths {
		copies += p.Sent
		first += p.Delivered - p.Suppressed
	}
	if copies > 0 {
		m["bond.useful_ratio"] = float64(first) / float64(copies)
	}
	m["fault.outages"] = float64(res.Outages)
	m["fault.outage_s"] = res.OutageTotal.Seconds()
}

// logHistQuantile reads a quantile off a telemetry log histogram through
// its JSON form, the only public view of its buckets.
func logHistQuantile(h *obs.LogHistogram, q float64) float64 {
	raw, err := json.Marshal(h)
	if err != nil {
		return 0
	}
	var wire struct {
		Count   int64            `json:"count"`
		Zero    int64            `json:"zero"`
		Buckets map[string]int64 `json:"buckets"`
	}
	if err := json.Unmarshal(raw, &wire); err != nil || wire.Count == 0 {
		return 0
	}
	idx := make([]int, 0, len(wire.Buckets))
	for k := range wire.Buckets {
		if i, err := strconv.Atoi(k); err == nil {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	rank := int64(math.Ceil(q * float64(wire.Count)))
	seen := wire.Zero
	if seen >= rank {
		return 0
	}
	for _, i := range idx {
		if seen += wire.Buckets[strconv.Itoa(i)]; seen >= rank {
			return metrics.BucketUpper(int32(i))
		}
	}
	return 0
}

// exports times the observability read and write paths: on the traced
// run's own trace, or for a campaign round on the whole campaign's.
func (r *replay) exports(out *roundOut) {
	m := r.m
	if so := out.sweep; so != nil {
		mb := float64(len(so.trace)) / 1e6
		m["obs.trace_bytes"] = float64(len(so.trace))
		m["obs.jsonl_write_mb_per_s"] = mb / so.exportS
		m["obs.jsonl_read_mb_per_s"] = mb / so.readS
		m["obs.analyze_s"] = so.analyzeS
		m["obs.export_s"] = so.exportS
		m["core.summarize_ms"] = so.summarizeS * 1e3
	} else {
		res := r.res
		var trace bytes.Buffer
		writeS := r.once("obs", "jsonl-write", func() {
			_ = obs.WriteJSONL(&trace, core.TraceRunMeta(res, 0), r.in.events)
		})
		var parsed []obs.TraceRun
		readS := r.once("obs", "jsonl-read", func() {
			parsed, _ = obs.ReadJSONL(bytes.NewReader(trace.Bytes()))
		})
		m["obs.analyze_s"] = r.once("obs", "analyze", func() { analyze.Trace(parsed) })
		metricsS := r.once("obs", "metrics-write", func() {
			_ = core.WriteCampaignMetrics(&countingWriter{}, []*core.Result{res})
		})
		mb := float64(trace.Len()) / 1e6
		m["obs.trace_bytes"] = float64(trace.Len())
		m["obs.jsonl_write_mb_per_s"] = mb / writeS
		m["obs.jsonl_read_mb_per_s"] = mb / readS
		m["obs.export_s"] = writeS + metricsS
		m["core.summarize_ms"] = 1e3 * r.once("core", "summarize", func() { core.Summarize([]*core.Result{res}) })
	}
	var a, b *obs.Registry
	m["core.result_registry_ms"] = 1e3 * r.once("core", "result-registry", func() { a = r.res.MetricsRegistry() })
	b = r.res.MetricsRegistry()
	m["obs.registry_merge_us"] = 1e6 * r.once("obs", "registry-merge", func() { a.Merge(b) })
}

// orchestration measures what a campaign, a dist sweep and a fleet add on
// top of the sum of their runs: the same work is repeated on one worker
// and compared with the two-worker wall.
func (r *replay) orchestration(seed int64, sc scale, out *roundOut) {
	m := r.m
	switch {
	case out.sweep != nil:
		so := out.sweep
		m["core.campaign_s"] = so.campaignS
		results := len(so.results)
		serialS := r.once("core", "campaign-serial", func() {
			base := so.results[0].Config
			base.Seed = seed
			core.RunCampaignWithOptions(base, results, core.CampaignOptions{Workers: 1})
		})
		m["core.campaign_efficiency"] = serialS / (2 * so.campaignS)
		phaseA := so.campaignS + so.exportS + so.readS + so.analyzeS + so.summarizeS
		m["dist.sweep_s"] = so.distS
		m["dist.fold_s"] = so.foldS
		m["dist.overhead_ratio"] = (so.distS + so.foldS) / phaseA
		m["dist.shard_bytes"] = float64(so.shardLen)
		m["dist.reissues"] = float64(so.distReg.Counter("dist_leases_reissued"))
	case out.fleet != nil:
		fc := fleetConfig(seed, sc)
		fleetS := r.once("core", "fleet", func() { core.RunFleet(fc) })
		fc.Workers = 1
		serialS := r.once("core", "fleet-serial", func() { core.RunFleet(fc) })
		m["core.fleet_s"] = fleetS
		m["core.fleet_efficiency"] = serialS / (2 * fleetS)
		r.replayContention(fc, out.fleet)
	}
}

// replayContention rebuilds the fleet's attachment timelines the way
// core.RunFleet's first phase does — every UAV's handover machine stepped
// offline over the shared map — and times the scheduling fold over them.
func (r *replay) replayContention(fc core.FleetConfig, fr *core.FleetResult) {
	epoch := fr.Epoch
	nEpochs := int((fr.Duration + epoch - 1) / epoch)
	spread := fc.Spread
	if spread <= 0 {
		spread = 750 // core's urban default; the fleet workload is urban
	}
	timelines := make([][]cell.AttachSample, fc.Size)
	steps := 0
	stepS := r.once("cell", "attach-timelines", func() {
		for u := range timelines {
			cfg := fc.Config
			cfg.Seed = core.DeriveSeed(fc.Config.Seed, u)
			cfg.Cells = fr.Deployment
			org := sim.New(cfg.Seed).Stream("fleet-origin")
			rad := spread * math.Sqrt(org.Float64())
			theta := 2 * math.Pi * org.Float64()
			cfg.OffsetX += rad * math.Cos(theta)
			cfg.OffsetY += rad * math.Sin(theta)
			_, stateAt := mobility(cfg)
			machine, ho := radio(cfg, cfg.Op, sim.New(cfg.Seed).Stream("cell"))
			tl := make([]cell.AttachSample, 0, nEpochs)
			meas := time.Duration(0)
			for k := 0; k < nEpochs; k++ {
				at := epoch * time.Duration(k)
				for meas <= at && meas <= fr.Duration {
					machine.Step(meas, stateAt(meas))
					meas += ho.MeasurementInterval
					steps++
				}
				tl = append(tl, cell.AttachSample{Cell: machine.Serving(), RSRP: machine.ServingRSRP()})
			}
			timelines[u] = tl
		}
	})
	var ct *cell.Contention
	contendS := r.once("cell", "contend", func() {
		ct = cell.Contend(timelines, fr.Deployment, fc.Sched, 0.25, epoch, fc.Events)
	})
	m := r.m
	m["cell.steps"] = float64(steps)
	m["cell.ns_per_step"] = perOp(stepS, steps)
	m["cell.busy_s"] = stepS
	m["cell.contend_s"] = contendS
	m["cell.contend_epochs"] = float64(nEpochs)
	if ct.Attaches != fr.Attaches || ct.OverloadEpochs != fr.OverloadEpochs {
		// The rebuilt timelines must reproduce the fleet's own fold.
		m["cell.contend_epochs"] = -1
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// flushSpans writes the pass's spans to spans.jsonl in the out directory.
// A process started by the all-workloads parent appends, so the file ends
// up holding every workload's spans.
func flushSpans(o options, spans []Span) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if o.appendSpans {
		flags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(filepath.Join(o.out, "spans.jsonl"), flags, 0o644)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
