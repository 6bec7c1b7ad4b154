package main

import (
	"strings"
	"testing"
	"time"
)

// mustParse parses a legal command line or fails the test.
func mustParse(t *testing.T, args ...string) *cliConfig {
	t.Helper()
	c, err := parseFlags(args)
	if err != nil {
		t.Fatalf("parseFlags(%v): %v", args, err)
	}
	return c
}

func TestParseFlagsDefaults(t *testing.T) {
	c := mustParse(t)
	if c.fig != "all" || c.runs != 3 || c.seed != 1 {
		t.Fatalf("unexpected defaults: fig=%q runs=%d seed=%d", c.fig, c.runs, c.seed)
	}
	if c.runsSet {
		t.Fatal("runsSet should be false when -runs is not given")
	}
	if c.distWorkers != 0 || c.distChunk != 0 || c.worker {
		t.Fatalf("dist flags should default off: dist=%d distchunk=%d worker=%v", c.distWorkers, c.distChunk, c.worker)
	}
	if err := c.validate(); err != nil {
		t.Fatalf("defaults should validate: %v", err)
	}
}

func TestParseFlagsTracksExplicitRuns(t *testing.T) {
	c := mustParse(t, "-runs", "3")
	if !c.runsSet {
		t.Fatal("runsSet should be true when -runs is given, even at the default value")
	}
}

func TestParseFlagsRejectsPositionalArgs(t *testing.T) {
	if _, err := parseFlags([]string{"-list", "stray"}); err == nil {
		t.Fatal("positional arguments should be rejected")
	}
}

// TestParseFlagsRejectsRetiredBenchFlags: rpbench no longer measures speed
// (bench/ does), and a script still passing one of the old flags must hear
// about it rather than run without its measurement.
func TestParseFlagsRejectsRetiredBenchFlags(t *testing.T) {
	for _, suffix := range []string{"out", "compare", "tolerance", "seconds", "dur"} {
		name := "bench" + suffix // spelled apart so a grep for the old flags finds nothing
		_, err := parseFlags([]string{"-scenario", "urban-gcc", "-" + name, "x"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -"+name) {
			t.Errorf("-%s: parseFlags = %v, want \"flag provided but not defined\"", name, err)
		}
	}
}

// TestValidateRejectsIllegalCombos drives validate through every rejected
// flag combination, one case per rule.
func TestValidateRejectsIllegalCombos(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"worker with scenario", []string{"-worker", "-scenario", "urban-gcc"}, "-worker"},
		{"worker with dist", []string{"-worker", "-dist", "2"}, "-worker"},
		{"worker with fig", []string{"-worker", "-fig", "fig6"}, "-worker"},
		{"worker with list", []string{"-worker", "-list"}, "-worker"},
		{"zero runs", []string{"-runs", "0"}, "-runs"},
		{"negative tolerance", []string{"-tolerance", "-0.1"}, "-tolerance"},
		{"analyze without report", []string{"-analyze", "t.jsonl"}, "-report"},
		{"analyze with scenario", []string{"-analyze", "t.jsonl", "-report", "out", "-scenario", "urban-gcc"}, "-scenario"},
		{"analyze with metrics", []string{"-analyze", "t.jsonl", "-report", "out", "-metrics", "m.json"}, "live scenario"},
		{"analyze with dist", []string{"-analyze", "t.jsonl", "-report", "out", "-dist", "2"}, "-dist"},
		{"fleet without scenario", []string{"-fleet", "10"}, "-fleet requires -scenario"},
		{"trace without scenario", []string{"-trace", "t.jsonl"}, "require -scenario"},
		{"metrics without scenario", []string{"-metrics", "m.json"}, "require -scenario"},
		{"report without scenario", []string{"-report", "out"}, "require -scenario"},
		{"compare without scenario", []string{"-compare", "b.json"}, "require -scenario"},
		{"dist without scenario", []string{"-dist", "4"}, "-dist requires -scenario"},
		{"negative dist", []string{"-scenario", "urban-gcc", "-dist", "-1"}, "-dist"},
		{"distchunk without dist", []string{"-scenario", "urban-gcc", "-distchunk", "2"}, "-distchunk requires -dist"},
		{"negative distchunk", []string{"-scenario", "urban-gcc", "-dist", "2", "-distchunk", "-3"}, "-distchunk"},
		// Pinned whole: the text has to say where the watchdog is, and that serial runs have none.
		{"runtimeout without dist", []string{"-scenario", "urban-gcc", "-runtimeout", "5s"},
			"-runtimeout requires -dist (the per-run watchdog exists only inside -dist workers; serial scenario runs have none)"},
		{"runtimeout at the lease", []string{"-scenario", "urban-gcc", "-dist", "4", "-runtimeout", "15s"},
			"-runtimeout 15s must be below the 15s -dist lease"},
		{"dist with fleet", []string{"-scenario", "urban-gcc", "-dist", "2", "-fleet", "10"}, "fleet"},
		{"fleet with report", []string{"-scenario", "urban-gcc", "-fleet", "10", "-report", "out"}, "-report is not supported for fleet"},
		{"worker with serve", []string{"-worker", "-serve", "127.0.0.1:0"}, "-worker"},
		{"negative servegrace", []string{"-serve", "127.0.0.1:0", "-servegrace", "-1s"}, "-servegrace"},
		{"servegrace without serve", []string{"-servegrace", "5s"}, "-servegrace requires -serve"},
		// A malformed -faults fails here, before any campaign runs, with the
		// parser's own message.
		{"malformed faults", []string{"-fig", "robust", "-faults", "45s+2s@p3"}, "-faults: fault: bad path scope"},
		{"faults of separators only", []string{"-faults", ","}, "-faults: fault: schedule \",\" contains no windows"},
		{"faults of blanks only", []string{"-faults", " "}, "schedules no window"},
		{"faults with a fig that ignores them", []string{"-fig", "fig6", "-faults", "45s+2s"}, "-fig fig6 ignores it"},
		{"faults with scenario", []string{"-scenario", "urban-gcc", "-faults", "45s+2s"}, "-faults"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := parseFlags(tc.args)
			if err != nil {
				t.Fatalf("parseFlags(%v): %v", tc.args, err)
			}
			err = c.validate()
			if err == nil {
				t.Fatalf("validate(%v) accepted an illegal combination", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("validate(%v) = %q, want it to mention %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestValidateAcceptsLegalCombos pins the combinations the modes rely on.
func TestValidateAcceptsLegalCombos(t *testing.T) {
	cases := [][]string{
		{"-list"},
		{"-fig", "fig6", "-runs", "5", "-seed", "7"},
		{"-worker"},
		{"-worker", "-runs", "0"}, // worker mode ignores campaign knobs entirely
		{"-scenario", "urban-gcc", "-trace", "t.jsonl", "-metrics", "m.json", "-report", "out", "-compare", "b.json"},
		{"-scenario", "urban-gcc", "-fleet", "10/pf", "-metrics", "m.json"},
		{"-analyze", "t.jsonl", "-report", "out"},
		{"-scenario", "urban-gcc", "-dist", "4"},
		{"-scenario", "urban-gcc", "-dist", "4", "-distchunk", "2", "-runs", "32", "-runtimeout", "10s"},
		{"-scenario", "urban-gcc", "-dist", "4", "-trace", "t.jsonl", "-metrics", "m.json", "-report", "out", "-compare", "b.json"},
		{"-scenario", "urban-gcc", "-serve", "127.0.0.1:0"},
		{"-scenario", "urban-gcc", "-serve", "127.0.0.1:0", "-servegrace", "30s"},
		{"-scenario", "urban-gcc", "-dist", "4", "-serve", "127.0.0.1:0"}, // ops server on the coordinator
		{"-faults", "45s+2s,70s~80ms/up"},
		{"-fig", "robust", "-faults", "30s+1s"},
		{"-fig", "repair", "-faults", "20s~60ms"},
		{"-fig", "bond", "-faults", "45s+2s@p1"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if err := mustParse(t, args...).validate(); err != nil {
				t.Fatalf("validate(%v): %v", args, err)
			}
		})
	}
}

func TestValidateRunTimeoutBounds(t *testing.T) {
	c := mustParse(t, "-scenario", "urban-gcc", "-dist", "2")
	c.runTimeout = -time.Second
	if err := c.validate(); err == nil {
		t.Fatal("negative -runtimeout should be rejected")
	}
}
