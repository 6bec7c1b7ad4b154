// Command tracegen emits a synthetic flight trace in the repository's
// flight-trace/v1 JSON-lines format (trace.Schema) — the open-data workflow
// of the paper (§3.2). The first line is a "meta" record (label, seed,
// duration_us); every following line is one event record with a fixed kind:
// "packet" (t_us, owd_us), "drop" (t_us), "handover" (t_us, from, to,
// het_us), "target" and "goodput" (t_us, mbps), "stall" (t_us, gap_us).
// Zero-valued fields are omitted. This is the dataset-release format, not
// the richer internal event trace of `rpbench -trace`; both are tabulated
// in DESIGN.md §6.
//
// Usage:
//
//	tracegen -env urban -cc gcc -seed 3 > flight.jsonl
//	tracegen -env rural -cc scream -op P2 -summary
package main

import (
	"flag"
	"fmt"
	"os"

	"rpivideo/internal/cell"
	"rpivideo/internal/core"
	"rpivideo/internal/endpoint"
	"rpivideo/internal/trace"
)

func main() {
	env := flag.String("env", "urban", "environment: urban or rural")
	op := flag.String("op", "P1", "operator: P1 or P2")
	ccName := flag.String("cc", "gcc", "rate control: static, gcc or scream")
	seed := flag.Int64("seed", 1, "seed")
	ground := flag.Bool("ground", false, "ground (motorbike) run instead of a flight")
	summary := flag.Bool("summary", false, "print a summary instead of the trace")
	asCSV := flag.Bool("csv", false, "emit CSV instead of JSON lines")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage: tracegen [flags] > flight.jsonl\n\n")
		fmt.Fprintf(out, "Emits a synthetic flight trace in the %s JSON-lines schema\n", trace.Schema)
		fmt.Fprintf(out, "(see DESIGN.md §6): a meta record, then one record per event —\n")
		fmt.Fprintf(out, "packet, drop, handover, target, goodput, stall.\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	cfg := core.Config{Air: !*ground, Seed: *seed, KeepSeries: true}
	switch *env {
	case "urban":
		cfg.Env = cell.Urban
	case "rural":
		cfg.Env = cell.Rural
	default:
		fatalf("unknown environment %q", *env)
	}
	switch *op {
	case "P1":
		cfg.Op = cell.P1
	case "P2":
		cfg.Op = cell.P2
	default:
		fatalf("unknown operator %q", *op)
	}
	var err error
	if cfg.CC, err = endpoint.ParseCC(*ccName); err != nil {
		fatalf("%v", err)
	}

	recs := trace.FromResult(core.Run(cfg))
	if *summary {
		s := trace.Summarize(recs)
		fmt.Printf("%s: %v, %d packets (mean OWD %v), %d drops, %d handovers (max HET %v), %d stalls, %.1f Mbps\n",
			s.Label, s.Duration, s.Packets, s.MeanOWD, s.Drops, s.Handovers, s.MaxHET, s.Stalls, s.MeanGoodputMbps)
		return
	}
	if *asCSV {
		if err := trace.WriteCSV(os.Stdout, recs); err != nil {
			fatalf("write csv: %v", err)
		}
		return
	}
	w := trace.NewWriter(os.Stdout)
	if err := w.WriteAll(recs); err != nil {
		fatalf("write: %v", err)
	}
	if err := w.Flush(); err != nil {
		fatalf("flush: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(1)
}
