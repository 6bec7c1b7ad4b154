// Command rpbench regenerates the tables and figures of the paper's
// evaluation from the simulation pipeline and prints the series the paper
// plots, together with shape checks against the published claims.
//
// Usage:
//
//	rpbench                  # run every experiment (≈10 min at -runs 3)
//	rpbench -fig fig6        # one experiment
//	rpbench -runs 5 -seed 7  # more repetitions, different base seed
//	rpbench -workers 1       # serial campaigns (default: one per CPU)
//	rpbench -list            # list experiment and scenario IDs
//
// Observability:
//
//	rpbench -scenario urban-gcc -trace out.jsonl   # traced scenario run
//	rpbench -scenario urban-gcc -metrics out.json  # campaign metrics
//	rpbench -scenario urban-gcc -fleet 500/pf      # 500 UAVs on one shared cell map
//	rpbench -scenario urban-gcc -report out/       # analyzer report bundle
//	rpbench -analyze out.jsonl -report out/        # same bundle from a trace file
//
// Live ops server (any mode):
//
//	rpbench -scenario urban-gcc -serve 127.0.0.1:0   # Prometheus /metrics, /status JSON,
//	                                                 # /events SSE, pprof; bound addr printed
//	rpbench -scenario urban-gcc -serve 127.0.0.1:0 -servegrace 30s  # hold for a final scrape
//
// Trace, metrics and report exports are byte-identical at any -workers
// setting, and a report built from a live run matches one replayed from its
// JSONL trace byte for byte. The -serve layer is purely observational:
// every export is unchanged with or without it.
//
// Regression gate:
//
//	rpbench -scenario urban-gcc -compare baseline.json  # exit 1 on drift
//
// rpbench measures no speed itself: bench/ (bash bench/run.sh) is the
// repository benchmark, and the per-run cost pins in internal/experiments
// (TestScenarioCosts) are the regression gate.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"rpivideo/internal/core"
	"rpivideo/internal/experiments"
	"rpivideo/internal/obs"
	"rpivideo/internal/obs/analyze"
)

func main() {
	c, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "rpbench:", err)
		os.Exit(2)
	}
	if err := c.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "rpbench:", err)
		os.Exit(2)
	}

	if c.list {
		for _, e := range experiments.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Desc)
		}
		for _, sc := range experiments.Scenarios() {
			fmt.Printf("%-16s [scenario] %s\n", sc.Name, sc.Desc)
		}
		return
	}

	// The live ops server (-serve): one address carrying pprof, runtime metrics, the Prometheus exposition, the status
	// snapshot and the SSE stream. sink stays nil without a server so the
	// engines skip all status work.
	var sink obs.StatusSink
	var tel *obs.Telemetry
	if c.serve != "" {
		tel = obs.NewTelemetry()
		sink = tel
		srv, err := obs.Serve(c.serve, tel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rpbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "rpbench: ops server on http://%s/ (/metrics /status /events /debug/pprof/)\n", srv.Addr())
		defer func() {
			if c.serveGrace > 0 {
				fmt.Fprintf(os.Stderr, "rpbench: holding the ops server for %v (-servegrace)\n", c.serveGrace)
				time.Sleep(c.serveGrace)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx) //nolint:errcheck // the process is exiting either way
		}()
	}

	if c.analyze != "" {
		if err := replayTrace(c.analyze, c.report); err != nil {
			fmt.Fprintln(os.Stderr, "rpbench:", err)
			os.Exit(1)
		}
		return
	}

	if c.scenario != "" {
		sc, err := experiments.ScenarioByName(c.scenario)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rpbench:", err)
			os.Exit(2)
		}
		if c.fleetSpec != "" {
			size, sched, err := core.ParseFleetSpec(c.fleetSpec)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rpbench: -fleet:", err)
				os.Exit(2)
			}
			sc.Fleet, sc.Sched = size, sched
		}
		exports := scenarioExports{
			trace: c.trace, metrics: c.metrics, report: c.report,
			compare: c.compare, tolerance: c.tolerance,
		}
		so := experiments.ScenarioOptions{Seed: c.seed, Workers: c.workers, StatusSink: sink}
		if c.runsSet {
			so.Runs = c.runs
		}
		var drifted bool
		switch {
		case sc.Fleet > 0:
			if tel != nil {
				tel.SetLabels("fleet", sc.Name)
			}
			drifted, err = runFleetScenario(sc, so, exports)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rpbench:", err)
				os.Exit(1)
			}
		default:
			if tel != nil {
				tel.SetLabels("campaign", sc.Name)
			}
			drifted, err = runScenario(sc, so, exports)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rpbench:", err)
				os.Exit(1)
			}
		}
		if drifted {
			os.Exit(1)
		}
		return
	}

	if tel != nil {
		tel.SetLabels("experiments", c.fig)
	}
	o := experiments.Options{Runs: c.runs, Seed: c.seed, Workers: c.workers, FaultSpec: c.faults, StatusSink: sink}
	failed := 0
	ran := 0
	for _, e := range experiments.Experiments() {
		if c.fig != "all" && c.fig != e.ID {
			continue
		}
		ran++
		rep := e.Run(o)
		if _, err := rep.WriteTo(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "rpbench:", err)
			os.Exit(1)
		}
		fmt.Println()
		if !rep.OK() {
			failed++
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "rpbench: unknown experiment %q (use -list)\n", c.fig)
		os.Exit(2)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "rpbench: %d experiment(s) failed shape checks\n", failed)
		os.Exit(1)
	}
}

// scenarioExports collects the optional -scenario output paths.
type scenarioExports struct {
	trace     string
	metrics   string
	report    string
	compare   string
	tolerance float64
}

// scenarioOutput is what a finished scenario mode — campaign or fleet —
// hands to scenarioExports.write: everything the exports consume and
// nothing about how it was produced.
type scenarioOutput struct {
	// registry is the campaign metrics registry (-metrics, -compare).
	registry *obs.Registry
	// writeTrace renders the -trace JSONL: per-run traces, or for a fleet
	// the per-cell attach/detach/overload timeline.
	writeTrace func(io.Writer) error
	// analyses builds the -report bundle's input.
	analyses func() ([]*analyze.RunAnalysis, error)
	// line is the one-line stdout summary.
	line string
}

// write produces every requested export from one scenario output, then
// prints its summary line. drifted reports a -compare gate failure (already
// printed); err covers everything else.
func (exp scenarioExports) write(out scenarioOutput) (drifted bool, err error) {
	if exp.trace != "" {
		if err := writeFileWith(exp.trace, out.writeTrace); err != nil {
			return false, err
		}
		fmt.Fprintf(os.Stderr, "rpbench: wrote trace %s\n", exp.trace)
	}
	if exp.metrics != "" {
		if err := writeFileWith(exp.metrics, out.registry.WriteJSON); err != nil {
			return false, err
		}
		fmt.Fprintf(os.Stderr, "rpbench: wrote metrics %s\n", exp.metrics)
	}
	if exp.report != "" {
		analyses, err := out.analyses()
		if err != nil {
			return false, err
		}
		if err := analyze.WriteBundle(exp.report, analyses); err != nil {
			return false, err
		}
		fmt.Fprintf(os.Stderr, "rpbench: wrote report bundle %s\n", exp.report)
	}
	if exp.compare != "" {
		f, err := os.Open(exp.compare)
		if err != nil {
			return false, err
		}
		base, err := obs.ReadRegistryJSON(f)
		f.Close()
		if err != nil {
			return false, err
		}
		drifts := obs.CompareRegistries(base, out.registry, obs.Tolerance{Default: exp.tolerance})
		for _, d := range drifts {
			fmt.Fprintln(os.Stderr, "rpbench: drift:", d)
		}
		if len(drifts) > 0 {
			fmt.Fprintf(os.Stderr, "rpbench: %d metric(s) drifted from %s\n", len(drifts), exp.compare)
			drifted = true
		} else {
			fmt.Fprintf(os.Stderr, "rpbench: metrics match baseline %s\n", exp.compare)
		}
	}
	fmt.Println(out.line)
	return drifted, nil
}

// campaignLine is the campaign mode's stdout summary: the run count and
// four counters of the campaign registry.
func campaignLine(name string, runs int, reg *obs.Registry) string {
	return fmt.Sprintf("scenario %s: %d runs, %d packets sent, %d delivered, %d frames played, %d skipped",
		name, runs, reg.Counter("packets_sent"), reg.Counter("packets_delivered"),
		reg.Counter("frames_played"), reg.Counter("frames_skipped"))
}

// runScenario executes one observability scenario in process and writes the
// requested exports.
func runScenario(sc experiments.Scenario, so experiments.ScenarioOptions, exp scenarioExports) (drifted bool, err error) {
	results, err := experiments.RunScenarioWithOptions(sc, so)
	if err != nil {
		return false, err
	}
	reg := core.CampaignMetrics(results)
	return exp.write(scenarioOutput{
		registry:   reg,
		writeTrace: func(w io.Writer) error { return core.WriteCampaignTrace(w, results) },
		analyses: func() ([]*analyze.RunAnalysis, error) {
			var analyses []*analyze.RunAnalysis
			for i, r := range results {
				analyses = append(analyses, analyze.Run(core.TraceRunMeta(r, i), r.Trace.Events()))
			}
			return analyses, nil
		},
		line: campaignLine(sc.Name, len(results), reg),
	})
}

// runFleetScenario is the fleet counterpart of runScenario: -trace receives
// the per-cell event timeline and -metrics / -compare use the merged fleet
// registry. The analyzer bundle has no fleet analog, so -report is rejected.
func runFleetScenario(sc experiments.Scenario, so experiments.ScenarioOptions, exp scenarioExports) (drifted bool, err error) {
	if exp.report != "" {
		return false, fmt.Errorf("-report is not supported for fleet runs (the analyzer consumes per-run traces)")
	}
	fr, err := experiments.RunFleetScenarioWithOptions(sc, so)
	if err != nil {
		return false, err
	}
	return exp.write(scenarioOutput{
		registry:   fr.MetricsRegistry(),
		writeTrace: fr.WriteCellEvents,
		line: fmt.Sprintf("fleet %s: %d UAVs (%s), median per-UAV goodput %.2f Mbps, min share %.4f, %d overload epochs, peak cell users %d, %d attaches, %d handovers",
			sc.Name, fr.Size, fr.Sched, fr.MedianUAVGoodput(), fr.MinShare, fr.OverloadEpochs, fr.PeakCellUsers, fr.Attaches, fr.Summary.Handovers),
	})
}

// replayTrace runs the analyzer over a JSONL trace file and writes the
// report bundle — the offline half of the live-vs-replay identity.
func replayTrace(tracePath, reportDir string) error {
	f, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	runs, err := obs.ReadJSONL(f)
	f.Close()
	if err != nil {
		return err
	}
	if err := analyze.WriteBundle(reportDir, analyze.Trace(runs)); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rpbench: analyzed %d run(s) from %s into %s\n", len(runs), tracePath, reportDir)
	return nil
}

// writeFileWith creates path and runs write against it, closing on the way
// out and reporting the first error.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
