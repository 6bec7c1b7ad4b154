// Command tracegen emits one full synthetic flight (or ground run) as the
// repository's JSONL event trace — the open-data workflow of the paper
// (§3.2). It is `rpbench -scenario … -trace` for an arbitrary environment,
// operator, rate control and seed: the first line is the run's "meta" record
// (label, run, seed, duration_us, events, dropped), every following line one
// event (send, recv, drop, handover, cc, frame-play, …; schema in DESIGN.md
// §6). `rpbench -analyze flight.jsonl -report dir` turns the file into the
// per-second series, handover epochs and outages as CSV plus a summary.json.
//
// Usage:
//
//	tracegen -env urban -cc gcc -seed 3 > flight.jsonl
//	tracegen -env rural -cc scream -op P2 > flight.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rpivideo/internal/cell"
	"rpivideo/internal/core"
	"rpivideo/internal/endpoint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams passed in; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	env := fs.String("env", "urban", "environment: urban or rural")
	op := fs.String("op", "P1", "operator: P1 or P2")
	ccName := fs.String("cc", "gcc", "rate control: static, gcc or scream")
	seed := fs.Int64("seed", 1, "seed")
	ground := fs.Bool("ground", false, "ground (motorbike) run instead of a flight")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "Usage: tracegen [flags] > flight.jsonl\n\n")
		fmt.Fprintf(stderr, "Emits one run's event trace as JSON lines (schema: DESIGN.md §6): a meta\n")
		fmt.Fprintf(stderr, "record, then one record per event. For CSV and a summary, replay it:\n")
		fmt.Fprintf(stderr, "rpbench -analyze flight.jsonl -report dir\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "tracegen: "+format+"\n", args...)
		return 1
	}

	cfg := core.Config{Air: !*ground, Seed: *seed, Trace: true}
	switch *env {
	case "urban":
		cfg.Env = cell.Urban
	case "rural":
		cfg.Env = cell.Rural
	default:
		return fail("unknown environment %q", *env)
	}
	switch *op {
	case "P1":
		cfg.Op = cell.P1
	case "P2":
		cfg.Op = cell.P2
	default:
		return fail("unknown operator %q", *op)
	}
	var err error
	if cfg.CC, err = endpoint.ParseCC(*ccName); err != nil {
		return fail("%v", err)
	}

	if err := core.WriteCampaignTrace(stdout, []*core.Result{core.Run(cfg)}); err != nil {
		return fail("write: %v", err)
	}
	return 0
}
