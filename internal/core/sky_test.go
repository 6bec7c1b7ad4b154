package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"rpivideo/internal/bond"
	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
	"rpivideo/internal/obs"
	"rpivideo/internal/sim"
)

// TestRunPlaysRecordedSky: a run's radio is the sky recorded before it, and
// nothing else. For urban and rural fleets under GCC, SCReAM and static
// rates, four UAVs each over the fleet's shared map at capacity shares 1,
// 0.5 and 0.1, with radio-link failures armed, plus a DAPS flight and a
// bonded one (its second chain too):
//   - the sky a run records and plays is bit-identical to one recorded
//     with no run, and to the one a fleet's phase 1 records;
//   - Result.Handovers, the RLF counts and the trace's handover and RLF
//     events are the sky's, step for step;
//   - a run on a sky recorded beforehand, as a fleet's phase 3 runs, makes
//     no signal-model evaluation and is the run that records its own.
func TestRunPlaysRecordedSky(t *testing.T) {
	const epoch = 100 * time.Millisecond
	dur := 60 * time.Second
	if testing.Short() {
		dur = 6 * time.Second
	}
	handovers, rlfs := 0, 0
	check := func(name string, cfg Config, share float64) {
		t.Helper()
		cfg.Duration, cfg.Trace = dur, true
		shareFn := func(time.Duration) float64 { return share }
		var live runBuffers
		res := live.run(new(Result), cfg, nil, shareFn, false)
		played := &live.chains[0].sky
		quiet := recordUAV(new(sky), cfg, dur, 0, new(runBuffers))
		if !reflect.DeepEqual(played, quiet) {
			t.Errorf("%s: the run played a sky other than the one recorded with no run", name)
		}
		checkPlayed(t, name, played, res.Trace, obs.DirUp)
		if !slices.Equal(res.Handovers, played.handovers) {
			t.Errorf("%s: the Result reports handovers %v, the sky %v", name, res.Handovers, played.handovers)
		}
		var quality, hoFailures int
		for _, ev := range played.rlfs {
			if ev.Cause == cell.RLFHandoverFailure {
				hoFailures++
			} else {
				quality++
			}
		}
		if res.RLFs != quality || res.HandoverFailures != hoFailures {
			t.Errorf("%s: the Result reports %d RLFs and %d handover failures, the sky %d and %d", name, res.RLFs, res.HandoverFailures, quality, hoFailures)
		}
		handovers += len(played.handovers)
		rlfs += len(played.rlfs)

		if cfg.Bond.Enabled() {
			s := sim.New(cfg.Seed)
			_, stateAt := setupMobility(cfg, s)
			quiet2 := new(sky).record(cfg, cell.P2, s.Stream("cell2"), new(chain), stateAt, dur, 0)
			if !reflect.DeepEqual(&live.chains[1].sky, quiet2) {
				t.Errorf("%s: the second chain played a sky other than the one recorded with no run", name)
			}
			checkPlayed(t, name+" second chain", &live.chains[1].sky, res.Trace, obs.DirUp2)
			handovers += len(quiet2.handovers)
			rlfs += len(quiet2.rlfs)
			return
		}

		// A fleet's phases 1 and 3 on one buffer set.
		var b runBuffers
		k := recordUAV(new(sky), cfg, dur, epoch, &b)
		if !slices.Equal(k.steps, quiet.steps) || !slices.Equal(k.handovers, quiet.handovers) || !slices.Equal(k.rlfs, quiet.rlfs) {
			t.Errorf("%s: phase 1 recorded a sky other than the run's", name)
		}
		if want := int((dur + epoch - 1) / epoch); len(k.attach) != want {
			t.Errorf("%s: phase 1 sampled %d epochs, want %d", name, len(k.attach), want)
		}
		evals := signalEvals(&b.chains[0].model)
		c := cfg
		c.Cells = nil
		res3 := b.run(new(Result), c, k, shareFn, false)
		if n := signalEvals(&b.chains[0].model) - evals; n != 0 {
			t.Errorf("%s: a run on a recorded sky made %d signal-model evaluations", name, n)
		}
		if resultFingerprint(res3) != resultFingerprint(res) || !slices.Equal(res3.Trace.Events(), res.Trace.Events()) {
			t.Errorf("%s: the run on phase 1's sky differs from the run that recorded its own", name)
		}
	}

	for _, env := range []cell.Environment{cell.Urban, cell.Rural} {
		const seed = 5
		cells := cell.Deployment(env, cell.P1, sim.New(seed).Stream("fleet-deploy"))
		for _, cc := range []CCKind{CCGCC, CCSCReAM, CCStatic} {
			for _, share := range []float64{1, 0.5, 0.1} {
				for u := 0; u < 4; u++ {
					cfg := Config{Env: env, Op: cell.P1, Air: true, CC: cc, Seed: DeriveSeed(seed, u),
						Cells: cells, Faults: fault.Config{RLF: true}}
					theta := math.Pi / 2 * float64(u)
					r := 500 * float64((u+1)*(u+1)) // the last UAV flies at the edge of coverage
					cfg.OffsetX, cfg.OffsetY = r*math.Cos(theta), r*math.Sin(theta)
					check(fmt.Sprintf("%v %v share %v uav %d", env, cc, share, u), cfg, share)
				}
			}
		}
	}
	check("urban daps", Config{Env: cell.Urban, Op: cell.P1, Air: true, CC: CCGCC, Seed: 3, DAPS: true, Faults: fault.Config{RLF: true}}, 1)
	check("rural bonded", Config{Env: cell.Rural, Op: cell.P1, Air: true, CC: CCGCC, Seed: 7,
		Bond: bond.Config{Policy: bond.PolicySpray}, Faults: fault.Config{RLF: true}}, 1)
	if handovers == 0 || rlfs == 0 && !testing.Short() {
		t.Fatalf("%d handovers and %d radio-link failures in the skies: the comparison checks too little", handovers, rlfs)
	}
	t.Logf("%d handovers and %d radio-link failures matched", handovers, rlfs)
}

// checkPlayed holds the handover and RLF events tr holds under dir to k's,
// step for step, and k's steps to a sparse record: each one changes the
// state the links read or commits an event, in step order, and together
// they commit every handover and RLF k holds.
func checkPlayed(t *testing.T, name string, k *sky, tr *obs.Tracer, dir obs.Dir) {
	t.Helper()
	every := cell.DefaultHandoverConfigFor(cell.Urban).MeasurementInterval
	var want []obs.Event
	var prev skyStep
	ho, rlf := 0, 0
	for i, st := range k.steps {
		if i > 0 && (st.n <= prev.n || st.state == prev.state && !st.ho && !st.rlf) {
			t.Errorf("%s: sky step %d (step %d after step %d) changes nothing", name, i, st.n, prev.n)
		}
		prev = st
		at := time.Duration(st.n) * every
		if st.ho && st.rlf {
			t.Errorf("%s: sky step %d commits a handover and an RLF", name, i)
		}
		switch {
		case st.ho:
			ev := k.handovers[ho]
			ho++
			want = append(want, obs.Event{T: at, Kind: obs.KindHandover, Dir: dir, Seq: int64(ev.From), Aux: int64(ev.To), V: float64(ev.HET) / float64(time.Millisecond)})
		case st.rlf:
			ev := k.rlfs[rlf]
			rlf++
			want = append(want, obs.Event{T: at, Kind: obs.KindRLF, Dir: dir, Seq: int64(ev.From), Aux: int64(ev.Cause), V: float64(ev.Outage) / float64(time.Millisecond)})
			if ev.At != at {
				t.Errorf("%s: the RLF at %v is recorded at step %d", name, ev.At, st.n)
			}
		}
	}
	if ho != len(k.handovers) || rlf != len(k.rlfs) {
		t.Errorf("%s: the sky's steps commit %d handovers and %d RLFs of its %d and %d", name, ho, rlf, len(k.handovers), len(k.rlfs))
	}
	var got []obs.Event
	for _, ev := range tr.Events() {
		if ev.Dir == dir && (ev.Kind == obs.KindHandover || ev.Kind == obs.KindRLF) {
			got = append(got, ev)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s: the trace holds %d handover and RLF events, the sky %d, or they differ", name, len(got), len(want))
	}
}

// signalEvals reads the count of a signal model's exact evaluations, the
// hook cell's own tests read directly.
func signalEvals(m *cell.SignalModel) uint64 {
	return reflect.ValueOf(m).Elem().FieldByName("evals").Uint()
}
