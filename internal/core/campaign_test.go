package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/obs"
	"rpivideo/internal/ordered"
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
	res, err := runGuarded("campaign run", 2, 30*time.Millisecond, func(int) *Result {
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
	res, err = runGuarded("campaign run", 3, time.Minute, func(i int) *Result { return &Result{Duration: time.Duration(i) * time.Second} })
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

// recordingSink keeps what the executor publishes, in call order. The
// executor serializes its calls, so it needs no lock of its own; status,
// when set, runs after each snapshot is kept.
type recordingSink struct {
	snaps  []obs.StatusSnapshot
	runs   []*obs.Registry
	status func(obs.StatusSnapshot)
}

func (s *recordingSink) ObserveRun(reg *obs.Registry) { s.runs = append(s.runs, reg) }

func (s *recordingSink) PublishStatus(st obs.StatusSnapshot) {
	s.snaps = append(s.snaps, st)
	if s.status != nil {
		s.status(st)
	}
}

// TestCampaignProgress: the sink gets one snapshot per completed job,
// RunsDone counting 1…n towards a terminal Done, and one registry per
// job that returned a result.
func TestCampaignProgress(t *testing.T) {
	const n, bad = 7, 4
	sink := &recordingSink{}
	_, errs := execJobs(n, executor{workers: 4, sink: sink}, func(i int) *Result {
		if i == bad {
			panic("no result")
		}
		return &Result{Duration: time.Second}
	})
	for i, err := range errs {
		if (err != nil) != (i == bad) {
			t.Errorf("errs[%d] = %v", i, err)
		}
	}
	if len(sink.snaps) != n {
		t.Fatalf("%d snapshots for %d jobs", len(sink.snaps), n)
	}
	for k, st := range sink.snaps {
		if st.RunsDone != k+1 || st.RunsTotal != n || st.Done != (k == n-1) {
			t.Errorf("snapshot %d = %+v, want %d/%d done=%v", k, st, k+1, n, k == n-1)
		}
	}
	if last := sink.snaps[n-1]; last.RunErrors != 1 || last.SimRate <= 0 || last.ETASeconds != 0 {
		t.Errorf("terminal snapshot %+v, want 1 run error, a sim rate and no ETA", last)
	}
	if len(sink.runs) != n-1 {
		t.Errorf("%d registries observed, want one per result (%d)", len(sink.runs), n-1)
	}
}

// TestExecutorFoldsInIndexOrder: with every job in flight at once and the
// jobs gated to complete in reverse order, the fold must still see indices
// 0..n-1 in order — so nothing folds until job 0 lands — and a job without
// a result (here a panic) takes its turn as nil instead of stalling the
// ones behind it. Each job's result carries its index in FramesPlayed, so
// the sink sees which job completed: the k-th completion is job n−k.
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
	sink, observed := &recordingSink{}, 0
	sink.status = func(st obs.StatusSnapshot) {
		job := bad // a completion that brought no registry is the panic
		if len(sink.runs) > observed {
			observed = len(sink.runs)
			job = int(sink.runs[observed-1].Counter("frames_played"))
		}
		if want := n - st.RunsDone; job != want {
			t.Errorf("completion %d was job %d, want %d (reverse order)", st.RunsDone, job, want)
		}
		if job > 0 {
			if len(order) != 0 {
				t.Errorf("folded %v before job 0 completed", order)
			}
			close(gates[job-1]) // release the next-lower job
		}
	}
	e := executor{workers: n, unit: "job", sink: sink}
	e.run(errs, func(i int) *Result {
		<-gates[i]
		if i == bad {
			panic("no result")
		}
		return &Result{Duration: time.Duration(i) * time.Second, Tally: Tally{FramesPlayed: i}}
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

// TestExecutorObservesBeforeFold: the executor observes a job's Result
// before any fold is handed it, so a fold may spoil what it is handed — as
// RunFleet's does when it gives a Result back to the pool — without a sink
// ever seeing it. The fold here poisons every Result; the sink must observe
// each one with the counts its job recorded, at one worker and at two.
func TestExecutorObservesBeforeFold(t *testing.T) {
	const n = 6
	for _, workers := range []int{1, 2} {
		sink := &recordingSink{}
		e := executor{workers: workers, unit: "job", sink: sink}
		e.run(make([]error, n), func(i int) *Result {
			return &Result{Duration: time.Second, Tally: Tally{PacketsSent: 10 + i, PacketsDelivered: 9, FramesPlayed: 25}}
		}, func(_ int, r *Result) { r.poison() })
		if len(sink.runs) != n {
			t.Fatalf("workers=%d: %d registries observed, want %d", workers, len(sink.runs), n)
		}
		for k, reg := range sink.runs {
			for _, name := range []string{"packets_sent", "packets_delivered", "packets_lost", "frames_played", "frames_skipped"} {
				if v := reg.Counter(name); v < 0 {
					t.Errorf("workers=%d: registry %d has %s = %d: the sink observed a Result its fold had poisoned", workers, k, name, v)
				}
			}
		}
	}
}

// TestExecutorWindowBoundsInFlight: while job 0 is slow, the fast jobs
// behind it complete only until 2·workers+1 jobs are between their start
// and their fold — ordered.Run's window — instead of every one of them
// completing ahead of its turn and waiting to be folded.
func TestExecutorWindowBoundsInFlight(t *testing.T) {
	const n = 60
	var peak atomic.Int64
	ordered.SetObserver(func(k int) {
		for p := peak.Load(); int64(k) > p && !peak.CompareAndSwap(p, int64(k)); p = peak.Load() {
		}
	})
	defer ordered.SetObserver(nil)
	for _, workers := range []int{2, 4} {
		window := 2*workers + 1
		peak.Store(0)
		var fast atomic.Int64
		var ahead int64 // fast jobs completed by the time job 0 ends
		e := executor{workers: workers, unit: "job"}
		e.run(make([]error, n), func(i int) *Result {
			if i == 0 {
				time.Sleep(50 * time.Millisecond)
				ahead = fast.Load()
			} else {
				fast.Add(1)
			}
			return &Result{Duration: time.Second}
		}, func(int, *Result) {})
		if ahead < 1 || ahead > int64(window-1) {
			t.Errorf("workers=%d: %d fast jobs completed during job 0, want 1 to %d", workers, ahead, window-1)
		}
		if p := peak.Load(); p > int64(window) {
			t.Errorf("workers=%d: %d jobs in flight at most, bound %d", workers, p, window)
		}
	}
}

// TestExecutorFoldDoesNotStallObserver: the fold of job 0 waits until the
// status sink has observed a later job, and the later jobs complete only
// once job 0 has been observed, so the sink must observe one while job 0's
// fold runs. A fold that held a lock the observer needs would wait forever;
// the fold gives up after a generous deadline, so that fails here instead
// of hanging.
func TestExecutorFoldDoesNotStallObserver(t *testing.T) {
	const n = 12
	for _, workers := range []int{2, 4} {
		window := 2*workers + 1
		observed0 := make(chan struct{})
		later := make(chan int, n)
		sink := &recordingSink{}
		sink.status = func(st obs.StatusSnapshot) {
			if st.RunsDone == 1 {
				close(observed0)
				return
			}
			later <- int(sink.runs[len(sink.runs)-1].Counter("frames_played"))
		}
		e := executor{workers: workers, unit: "job", sink: sink}
		e.run(make([]error, n), func(i int) *Result {
			if i > 0 {
				<-observed0
			}
			return &Result{Duration: time.Second, Tally: Tally{FramesPlayed: i}}
		}, func(i int, _ *Result) {
			if i != 0 {
				return
			}
			select {
			case k := <-later:
				if k <= 0 || k >= window {
					t.Errorf("workers=%d: job %d observed during job 0's fold, want one of 1..%d", workers, k, window-1)
				}
			case <-time.After(10 * time.Second):
				t.Errorf("workers=%d: no later job was observed while job 0's fold ran", workers)
			}
		})
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
		sink := &recordingSink{}
		e.sink = sink
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
		if last := sink.snaps[len(sink.snaps)-1]; last.RunErrors != 2 || !last.Done {
			t.Errorf("workers=%d: terminal snapshot %+v, want 2 run errors", workers, last)
		}
	}
}

// TestSeedDerivation pins the one run-seed rule: DeriveSeed must decorrelate
// the (base, run) pairs an affine scheme collides on, and a campaign's run i
// must run at DeriveSeed(base, i).
func TestSeedDerivation(t *testing.T) {
	if DeriveSeed(1, 1_000_003) == DeriveSeed(2, 0) {
		t.Error("splitmix derivation inherited the affine cross-campaign collision")
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
	cfg := Config{Env: cell.Urban, Air: true, CC: CCStatic, Seed: 9, Duration: 10 * time.Second}
	results, _ := RunCampaignWithOptions(cfg, 2, CampaignOptions{Workers: 1})
	single := cfg
	single.Seed = DeriveSeed(9, 1)
	if got, want := resultFingerprint(results[1]), resultFingerprint(Run(single)); got != want {
		t.Errorf("campaign run 1 differs from Run at DeriveSeed(9, 1):\n%s\nvs\n%s", got, want)
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
