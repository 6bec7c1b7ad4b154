package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"rpivideo/internal/fault"
)

// cliConfig is every rpbench flag, parsed into one struct so the legal
// flag combinations are decided in exactly one place (validate) instead of
// scattered through the mode dispatch.
type cliConfig struct {
	// Experiment mode.
	fig     string
	runs    int
	runsSet bool // -runs was given explicitly (overrides a scenario's own)
	seed    int64
	workers int
	faults  string
	list    bool

	// Scenario / observability mode.
	scenario  string
	fleetSpec string
	trace     string
	metrics   string
	report    string
	analyze   string
	compare   string
	tolerance float64

	// Live ops server: -serve is the address, serveGrace how long the
	// server outlives the workload so a scraper can read the terminal
	// status.
	serve      string
	serveGrace time.Duration
}

// parseFlags parses args (not including the program name) into a cliConfig.
// It does not validate combinations; call validate next.
func parseFlags(args []string) (*cliConfig, error) {
	c := &cliConfig{}
	fs := flag.NewFlagSet("rpbench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	fs.StringVar(&c.fig, "fig", "all", "experiment ID to run, or 'all'")
	fs.IntVar(&c.runs, "runs", 3, "seeded repetitions per configuration")
	fs.Int64Var(&c.seed, "seed", 1, "base seed")
	fs.IntVar(&c.workers, "workers", runtime.GOMAXPROCS(0),
		"concurrent campaign runs (results are identical at any setting)")
	fs.StringVar(&c.faults, "faults", "",
		"scripted fault schedule for the robust/repair/bond experiments: \"start+dur\" outages, \"start~dur\" loss fades, @p1/@p2 path scopes, e.g. \"45s+2s,70s~80ms/up\" or \"45s+2s@p1\"")
	fs.BoolVar(&c.list, "list", false, "list experiment and scenario IDs and exit")
	fs.StringVar(&c.scenario, "scenario", "", "run a named observability scenario instead of experiments")
	fs.StringVar(&c.fleetSpec, "fleet", "", "run the scenario as a fleet of N UAVs on one shared cell map: \"N\" or \"N/rr|pf\" (requires -scenario; overrides the scenario's own fleet setting)")
	fs.StringVar(&c.trace, "trace", "", "write the scenario's event trace as JSONL to this file (requires -scenario)")
	fs.StringVar(&c.metrics, "metrics", "", "write the scenario's campaign metrics as JSON to this file (requires -scenario)")
	fs.StringVar(&c.report, "report", "", "write an analyzer report bundle (series/epochs/outages CSV + summary.json) to this directory (requires -scenario or -analyze)")
	fs.StringVar(&c.analyze, "analyze", "", "replay a JSONL trace file through the analyzer instead of simulating (use with -report)")
	fs.StringVar(&c.compare, "compare", "", "regression gate: diff the scenario's campaign metrics against this baseline registry JSON, exit 1 on drift (requires -scenario)")
	fs.Float64Var(&c.tolerance, "tolerance", 0, "default relative drift tolerance for -compare (campaigns are deterministic, so 0 = exact is the expected gate)")
	fs.StringVar(&c.serve, "serve", "", "serve the live ops endpoints on this address while running: Prometheus /metrics, /status JSON, /events SSE, plus pprof and /debug/runtime-metrics (use 127.0.0.1:0 for an ephemeral port; the bound address is printed)")
	fs.DurationVar(&c.serveGrace, "servegrace", 0, "keep the -serve ops server up this long after the workload completes, so a scraper can collect the terminal /status and /metrics (0 = shut down immediately)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "runs" {
			c.runsSet = true
		}
	})
	return c, nil
}

// validate rejects illegal flag combinations. Every rule lives here — the
// mode dispatch in main assumes a validated config and never re-checks.
func (c *cliConfig) validate() error {
	if c.runs < 1 {
		return errors.New("-runs must be at least 1")
	}
	if c.tolerance < 0 || math.IsNaN(c.tolerance) || math.IsInf(c.tolerance, 0) {
		return errors.New("-tolerance must be a finite, non-negative number")
	}
	if c.serveGrace < 0 {
		return errors.New("-servegrace must not be negative")
	}
	if c.serveGrace != 0 && c.serve == "" {
		return errors.New("-servegrace requires -serve (there is no server to hold open)")
	}
	if c.faults != "" {
		switch {
		case c.scenario != "" || c.analyze != "":
			return errors.New("-faults scripts the robust, repair and bond experiments and cannot be combined with -scenario or -analyze")
		case c.fig != "all" && c.fig != "robust" && c.fig != "repair" && c.fig != "bond":
			return fmt.Errorf("-faults applies to -fig robust, repair, bond or all; -fig %s ignores it", c.fig)
		}
		ws, err := fault.ParseSchedule(c.faults)
		if err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		if len(ws) == 0 {
			return fmt.Errorf("-faults %q schedules no window", c.faults)
		}
	}

	if c.analyze != "" {
		if c.report == "" {
			return errors.New("-analyze needs -report <dir> for the bundle")
		}
		if c.scenario != "" {
			return errors.New("-analyze replays a trace file and cannot be combined with -scenario")
		}
		if c.trace != "" || c.metrics != "" || c.compare != "" {
			return errors.New("-analyze supports only -report (the other exports need a live scenario run)")
		}
		return nil
	}

	if c.scenario == "" {
		if c.fleetSpec != "" {
			return errors.New("-fleet requires -scenario (use -list for scenario IDs)")
		}
		if c.trace != "" || c.metrics != "" || c.report != "" || c.compare != "" {
			return errors.New("-trace/-metrics/-report/-compare require -scenario (use -list for scenario IDs)")
		}
	}

	if c.fleetSpec != "" && c.report != "" {
		return errors.New("-report is not supported for fleet runs (the analyzer consumes per-run traces)")
	}
	return nil
}
