// Command bench is the repository benchmark: five closed-loop workloads,
// five end-to-end metrics from an untraced pass and a per-layer cost
// ledger from a traced replay pass. See README.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
)

// options are the command-line settings shared by every mode.
type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	scale      scale
	out        string
	cpuprofile string
	digests    string
	// appendSpans makes a traced pass append to spans.jsonl instead of
	// replacing it; the all-workloads parent sets it on its children.
	appendSpans bool
}

// args renders the options a per-workload child process needs.
func (o options) args(workload string) []string {
	a := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds),
		"-trace", strconv.Itoa(o.trace),
		"-scale", strconv.FormatFloat(float64(o.scale), 'g', -1, 64),
		"-out", o.out,
	}
	if o.cpuprofile != "" {
		a = append(a, "-cpuprofile", o.cpuprofile)
	}
	if o.trace == 1 {
		a = append(a, "-spans-append")
	}
	return a
}

func main() {
	// Two cores, pinned: the sandbox has two, and a machine with more must
	// not change how the two-worker workloads schedule.
	runtime.GOMAXPROCS(2)
	debug.SetGCPercent(100)

	var o options
	var sc float64
	var selfcheck, probe bool
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process; empty runs all five, one fresh process each")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "base seed; round r runs on core.DeriveSeed(seed, r)")
	flag.IntVar(&o.seconds, "seconds", 0, "measure rounds for this many seconds; 0 runs each workload's fixed round count")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced replay pass, per-layer metrics")
	flag.Float64Var(&sc, "scale", 1, "shrink every workload (smoke tests only; 1 is the frozen size)")
	flag.StringVar(&o.out, "out", "out", "directory for spans.jsonl, selfcheck.json and the per-workload pass files")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write one CPU profile per workload under this directory (outside the repo tree)")
	flag.StringVar(&o.digests, "digests", "", "compare each workload's sim_digest with this file, or create it when missing")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the untraced pass twice in fresh processes and compare them against the bounds")
	flag.BoolVar(&probe, "setup-probe", false, "internal: warm up one workload and print the set-up seconds")
	flag.BoolVar(&o.appendSpans, "spans-append", false, "internal: append to spans.jsonl instead of replacing it")
	flag.Parse()
	o.scale = scale(sc)

	if err := run(o, selfcheck, probe); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, selfcheck, probe bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.scale <= 0 || o.scale > 1 {
		return errors.New("-scale must be in (0, 1]")
	}
	if o.trace != 0 && o.trace != 1 {
		return errors.New("-trace must be 0 or 1")
	}
	if o.seconds < 0 {
		return errors.New("-seconds must not be negative")
	}
	switch {
	case selfcheck:
		return runSelfcheck(o)
	case o.workload == "":
		if err := runAll(o); err != nil {
			return err
		}
		if o.digests != "" && o.trace == 0 {
			return checkDigests(o)
		}
		return nil
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if probe {
		return setupProbe(w, o.seed, o.scale)
	}
	var pf *passFile
	var err error
	pass := "untraced"
	if o.trace == 1 {
		pass = "traced"
		pf, err = tracedPass(w, o)
	} else {
		pf, err = untracedPass(w, o)
	}
	if err != nil {
		return err
	}
	if err := writePassFile(o.out, pass, pf); err != nil {
		return err
	}
	return printPass(pf, pass)
}

// runAll runs every workload in its own fresh process, one after another,
// so set-up time and peak memory are per workload and one workload's heap
// never shapes the next one's.
func runAll(o options) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating the benchmark binary for re-exec: %w", err)
	}
	if o.trace == 1 {
		// The children append their spans; start from an empty file.
		if err := os.Remove(filepath.Join(o.out, "spans.jsonl")); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	for _, w := range workloads {
		cmd := exec.Command(exe, o.args(w.Name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w.Name, err)
		}
	}
	return nil
}
