package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"rpivideo/internal/cell"
)

// resultFingerprint renders every result field the experiments package
// consumes — distribution boxes, counters, handover lists — so two results
// can be compared byte-for-byte.
func resultFingerprint(r *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "dur=%v\n", r.Duration)
	fmt.Fprintf(&sb, "owd=%v\n", r.OWDms.Box())
	for b := range r.OWDByAlt {
		fmt.Fprintf(&sb, "owd[%v]=%v\n", AltBucket(b), r.OWDByAlt[b].Box())
	}
	fmt.Fprintf(&sb, "goodput=%v\n", r.Goodput.Box())
	fmt.Fprintf(&sb, "fps=%v playback=%v ssim=%v\n", r.FPS.Box(), r.PlaybackMs.Box(), r.SSIM.Box())
	fmt.Fprintf(&sb, "jitter=%v rtcprtt=%v\n", r.JitterMs.Box(), r.RTCPRTTms.Box())
	fmt.Fprintf(&sb, "pkts=%d/%d/%d/%d/%d ctrl=%d/%d/%d per=%.9f\n",
		r.PacketsSent, r.PacketsDelivered, r.PacketsLost, r.Overflows, r.AQMDrops,
		r.CtrlPacketsSent, r.CtrlPacketsDelivered, r.CtrlPacketsLost, r.PER)
	fmt.Fprintf(&sb, "frames=%d/%d stalls=%d/%.4f rampup=%v\n",
		r.FramesPlayed, r.FramesSkipped, len(r.Stalls), r.StallsPerMin, r.RampUpTo25)
	for _, ev := range r.Handovers {
		fmt.Fprintf(&sb, "ho=%+v\n", ev)
	}
	return sb.String()
}

// TestCampaignParallelMatchesSerial is the determinism lock the worker pool
// depends on: a parallel campaign must produce results identical to the
// serial path for the same (Config, Seed), field by field and in run-index
// order — through RunCampaignWithOptions and through the RunCampaignFold it
// is built on.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	cfg := Config{Env: cell.Urban, Air: true, CC: CCGCC, Seed: 21, Duration: 30 * time.Second}
	const runs = 6
	serial, serr := RunCampaignWithOptions(cfg, runs, CampaignOptions{Workers: 1})
	// The parallel half goes through RunCampaignFold directly: the fold must
	// see every run, in index order, whatever order the workers finish in.
	var par []*Result
	perr := RunCampaignFold(cfg, runs, CampaignOptions{Workers: 4}, func(i int, r *Result) {
		if i != len(par) {
			t.Errorf("fold saw run %d at position %d", i, len(par))
		}
		par = append(par, r)
	})
	if len(serial) != runs || len(par) != runs {
		t.Fatalf("campaign sizes: serial %d, parallel %d", len(serial), len(par))
	}
	for i := 0; i < runs; i++ {
		if serr[i] != nil || perr[i] != nil {
			t.Fatalf("run %d errored: serial %v, parallel %v", i, serr[i], perr[i])
		}
		a, b := resultFingerprint(serial[i]), resultFingerprint(par[i])
		if a != b {
			t.Errorf("run %d differs between serial and parallel:\n--- serial ---\n%s--- parallel ---\n%s", i, a, b)
		}
	}
}

// execJobs drives the executor over an arbitrary job the way
// RunCampaignWithOptions does: the fold stores results[i].
func execJobs(n int, e executor, job func(i int) *Result) ([]*Result, []error) {
	results := make([]*Result, n)
	errs := make([]error, n)
	e.unit = "campaign run"
	e.run(errs, job, func(i int, r *Result) { results[i] = r })
	return results, errs
}

// TestCampaignPanicRecovered: one panicking run must surface as an error in
// its own slot without losing the other runs' results.
func TestCampaignPanicRecovered(t *testing.T) {
	results, errs := execJobs(5, executor{workers: 3}, func(i int) *Result {
		if i == 2 {
			panic("injected failure")
		}
		return &Result{Duration: time.Duration(i) * time.Second}
	})
	if errs[2] == nil || !strings.Contains(errs[2].Error(), "run 2") ||
		!strings.Contains(errs[2].Error(), "injected failure") {
		t.Fatalf("panic not captured: %v", errs[2])
	}
	if results[2] != nil {
		t.Error("panicked run left a result")
	}
	for _, i := range []int{0, 1, 3, 4} {
		if errs[i] != nil || results[i] == nil || results[i].Duration != time.Duration(i)*time.Second {
			t.Errorf("run %d lost: res=%v err=%v", i, results[i], errs[i])
		}
	}
}

// TestCampaignErrorAggregation: several runs failing at once under a
// parallel worker pool must land each error at its own run index — never at
// a neighbour's — and the surviving results must be the same set the serial
// pool produces, in the same order.
func TestCampaignErrorAggregation(t *testing.T) {
	const runs = 12
	bad := map[int]bool{1: true, 5: true, 10: true}
	job := func(i int) *Result {
		if bad[i] {
			panic(fmt.Sprintf("boom-%d", i))
		}
		return &Result{Duration: time.Duration(i) * time.Second}
	}
	for _, workers := range []int{1, 4} {
		results, errs := execJobs(runs, executor{workers: workers}, job)
		for i := 0; i < runs; i++ {
			if bad[i] {
				if results[i] != nil {
					t.Errorf("workers=%d: failed run %d left a result", workers, i)
				}
				if errs[i] == nil ||
					!strings.Contains(errs[i].Error(), fmt.Sprintf("run %d", i)) ||
					!strings.Contains(errs[i].Error(), fmt.Sprintf("boom-%d", i)) {
					t.Errorf("workers=%d: run %d error misrouted: %v", workers, i, errs[i])
				}
				continue
			}
			if errs[i] != nil {
				t.Errorf("workers=%d: healthy run %d errored: %v", workers, i, errs[i])
			}
			if results[i] == nil || results[i].Duration != time.Duration(i)*time.Second {
				t.Errorf("workers=%d: run %d result misrouted: %+v", workers, i, results[i])
			}
		}
	}
}

// TestCampaignWatchdogAbandonsHungRun: runGuarded, the watchdog under
// RunWithTimeout, abandons a run that neither returns nor panics at the
// deadline with an error naming the run and the watchdog, and passes a run
// that returns in time through untouched.
func TestCampaignWatchdogAbandonsHungRun(t *testing.T) {
	release := make(chan struct{})
	defer close(release) // unblock the abandoned goroutine on the way out
	res, err := runGuarded("campaign run 2", 30*time.Millisecond, func() *Result {
		<-release
		return &Result{}
	})
	if err == nil || !strings.Contains(err.Error(), "run 2") ||
		!strings.Contains(err.Error(), "watchdog deadline") {
		t.Fatalf("hung run not abandoned: %v", err)
	}
	if res != nil {
		t.Error("abandoned run left a result")
	}
	res, err = runGuarded("campaign run 3", time.Minute, func() *Result { return &Result{Duration: 3 * time.Second} })
	if err != nil || res == nil || res.Duration != 3*time.Second {
		t.Errorf("prompt run lost under the watchdog: res=%v err=%v", res, err)
	}
}

// TestRunWithTimeoutKeepsPanicRecovery: a zero timeout disables only the
// watchdog — a panicking run still comes back as an error, not a crash.
func TestRunWithTimeoutKeepsPanicRecovery(t *testing.T) {
	_, err := RunWithTimeout(Config{Env: cell.Urban, CC: CCSCReAM, Seed: 1,
		Duration: time.Second, ScreamFeedbackInterval: -time.Millisecond}, 0)
	if err == nil {
		t.Fatal("panicking run returned no error")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic detail lost: %v", err)
	}
}

// TestCampaignProgress: the hook sees every run exactly once and a
// monotonically complete campaign.
func TestCampaignProgress(t *testing.T) {
	seen := make(map[int]int)
	last := 0
	_, errs := execJobs(7, executor{workers: 4, progress: func(p CampaignProgress) {
		seen[p.RunIndex]++
		if p.Total != 7 || p.Completed != last+1 {
			t.Errorf("progress out of order: %+v after completed=%d", p, last)
		}
		last = p.Completed
	}}, func(i int) *Result { return &Result{Duration: time.Second} })
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if last != 7 || len(seen) != 7 {
		t.Errorf("progress coverage: completed=%d distinct=%d", last, len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("run %d reported %d times", i, n)
		}
	}
}

// TestExecutorFoldsInIndexOrder: with every job in flight at once and the
// jobs gated to complete in reverse order, the fold must still see indices
// 0..n-1 in order — so nothing folds until job 0 lands — and a job without
// a result (here a panic) takes its turn as nil instead of stalling the
// ones behind it.
func TestExecutorFoldsInIndexOrder(t *testing.T) {
	const n, bad = 6, 3
	gates := make([]chan struct{}, n)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	close(gates[n-1])
	type folded struct {
		i   int
		nil bool
	}
	var order []folded
	errs := make([]error, n)
	e := executor{workers: n, unit: "job", progress: func(p CampaignProgress) {
		if want := n - p.Completed; p.RunIndex != want {
			t.Errorf("completion %d was job %d, want %d (reverse order)", p.Completed, p.RunIndex, want)
		}
		if p.RunIndex > 0 {
			if len(order) != 0 {
				t.Errorf("folded %v before job 0 completed", order)
			}
			close(gates[p.RunIndex-1]) // release the next-lower job
		}
	}}
	e.run(errs, func(i int) *Result {
		<-gates[i]
		if i == bad {
			panic("no result")
		}
		return &Result{Duration: time.Duration(i) * time.Second}
	}, func(i int, r *Result) {
		if r != nil && r.Duration != time.Duration(i)*time.Second {
			t.Errorf("fold(%d) got job %v's result", i, r.Duration)
		}
		order = append(order, folded{i, r == nil})
	})
	if len(order) != n {
		t.Fatalf("folded %d of %d jobs: %v", len(order), n, order)
	}
	for i, f := range order {
		if f.i != i || f.nil != (i == bad) {
			t.Errorf("fold %d = %+v, want index %d (nil only at %d)", i, f, i, bad)
		}
	}
	for i, err := range errs {
		if (err != nil) != (i == bad) {
			t.Errorf("errs[%d] = %v", i, err)
		}
	}
}

// TestExecutorKeepsEarlierFailure is RunFleet's two-phase shape: both
// phases share one errs slice, so a UAV that panicked in phase 1 must not
// run in phase 3 — it is folded as nil and counted as failed, keeping its
// phase-1 error — while a UAV that panics in phase 3 lands in its own slot
// and every other UAV folds.
func TestExecutorKeepsEarlierFailure(t *testing.T) {
	const n = 6
	for _, workers := range []int{1, 4} {
		errs := make([]error, n)
		e := executor{workers: workers, unit: "fleet uav"}
		e.run(errs, func(u int) *Result {
			if u == 1 {
				panic("phase 1")
			}
			return nil
		}, func(int, *Result) {})

		var folded []int
		failedSeen := 0
		e.progress = func(p CampaignProgress) {
			if p.Err != nil {
				failedSeen++
			}
		}
		e.run(errs, func(u int) *Result {
			switch u {
			case 1:
				t.Errorf("workers=%d: uav 1 ran in phase 3 after failing phase 1", workers)
			case 4:
				panic("phase 3")
			}
			return &Result{Duration: time.Second}
		}, func(u int, r *Result) {
			if r != nil {
				folded = append(folded, u)
			}
		})
		if got := fmt.Sprint(folded); got != "[0 2 3 5]" {
			t.Errorf("workers=%d: folded %s, want the four healthy UAVs in order", workers, got)
		}
		for u, want := range map[int]string{1: "fleet uav 1 panicked: phase 1", 4: "fleet uav 4 panicked: phase 3"} {
			if errs[u] == nil || errs[u].Error() != want {
				t.Errorf("workers=%d: errs[%d] = %v, want %q", workers, u, errs[u], want)
			}
		}
		if failedSeen != 2 {
			t.Errorf("workers=%d: observer saw %d failed UAVs, want 2", workers, failedSeen)
		}
	}
}

// TestSeedDerivation pins both derivations: the splitmix default must
// decorrelate (base, run) pairs the legacy affine scheme collides on, and
// the legacy switch must reproduce the historical seeds exactly.
func TestSeedDerivation(t *testing.T) {
	if legacySeed(1, 1_000_003) != legacySeed(2, 0) {
		t.Error("legacy derivation changed; the compatibility switch no longer reproduces history")
	}
	if DeriveSeed(1, 1_000_003) == DeriveSeed(2, 0) {
		t.Error("splitmix derivation inherited the legacy cross-campaign collision")
	}
	seen := make(map[int64]bool)
	for base := int64(0); base < 32; base++ {
		for run := 0; run < 32; run++ {
			s := DeriveSeed(base, run)
			if seen[s] {
				t.Fatalf("DeriveSeed collision at base=%d run=%d", base, run)
			}
			seen[s] = true
		}
	}
	opts := CampaignOptions{LegacySeeds: true}
	if got, want := opts.runSeed(9, 1), int64(9*1_000_003+1); got != want {
		t.Errorf("legacy runSeed = %d, want %d", got, want)
	}
}

// TestSenderReportsAreControlPlane: RTCP SRs ride the media uplink but must
// not count toward the media counters PER is computed from.
func TestSenderReportsAreControlPlane(t *testing.T) {
	r := Run(Config{Env: cell.Urban, Air: true, CC: CCStatic, Seed: 3, Duration: 40 * time.Second})
	// One SR per second, starting at t=1 s.
	if r.CtrlPacketsSent < 35 || r.CtrlPacketsSent > 40 {
		t.Errorf("control packets sent = %d, want ≈ one SR per second", r.CtrlPacketsSent)
	}
	// Conservation up to packets still in flight when the run ends at dur.
	if inFlight := r.CtrlPacketsSent - r.CtrlPacketsDelivered - r.CtrlPacketsLost; inFlight < 0 || inFlight > 2 {
		t.Errorf("control conservation: %d delivered + %d lost vs %d sent",
			r.CtrlPacketsDelivered, r.CtrlPacketsLost, r.CtrlPacketsSent)
	}
	if r.PacketsSent == 0 {
		t.Fatal("no media packets")
	}
	if want := float64(r.PacketsLost) / float64(r.PacketsSent); r.PER != want {
		t.Errorf("PER = %v, want media-only %v", r.PER, want)
	}
}
