package core

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
	"rpivideo/internal/sim"
)

// TestFleetReplayMatchesLiveRadio: RunFleet's phase 1 replays each UAV's
// radio offline (attachTimeline) and phase 2 schedules the cells on what it
// recorded, so the replay must be the radio the UAV's live run flies. For
// urban and rural fleets under GCC, SCReAM and static rates, four UAVs
// each at capacity shares 1, 0.5 and 0.1, the machine attachTimeline
// stepped to the end of the run must have committed the live run's
// handovers (time, cells and HET) and radio-link failures, and the live
// Result must report the live machine's handovers.
func TestFleetReplayMatchesLiveRadio(t *testing.T) {
	const epoch = 100 * time.Millisecond
	dur := 60 * time.Second
	if testing.Short() {
		dur = 6 * time.Second
	}
	handovers, rlfs := 0, 0
	for _, env := range []cell.Environment{cell.Urban, cell.Rural} {
		const seed = 5
		cells := cell.Deployment(env, cell.P1, sim.New(seed).Stream("fleet-deploy"))
		for _, cc := range []CCKind{CCGCC, CCSCReAM, CCStatic} {
			for _, share := range []float64{1, 0.5, 0.1} {
				for u := 0; u < 4; u++ {
					name := fmt.Sprintf("%v %v share %v uav %d", env, cc, share, u)
					cfg := Config{Env: env, Op: cell.P1, Air: true, CC: cc, Seed: DeriveSeed(seed, u), Duration: dur,
						Cells: cells, Faults: fault.Config{RLF: true},
						CapacityShare: func(time.Duration) float64 { return share }}
					theta := math.Pi / 2 * float64(u)
					r := 500 * float64((u+1)*(u+1)) // the last UAV flies at the edge of coverage
					cfg.OffsetX, cfg.OffsetY = r*math.Cos(theta), r*math.Sin(theta)

					var live, replay runBuffers
					res := live.run(new(Result), cfg, false)
					lm := &live.primary.machine
					attachTimeline(cfg, dur, epoch, int(dur/epoch)+1, &replay)
					rm := &replay.primary.machine
					if !slices.Equal(res.Handovers, lm.Events()) {
						t.Errorf("%s: the Result reports %d handovers, the live machine committed %d", name, len(res.Handovers), len(lm.Events()))
					}
					if !slices.Equal(rm.Events(), lm.Events()) {
						t.Errorf("%s: the replay committed %d handovers, the live run %d", name, len(rm.Events()), len(lm.Events()))
					}
					if !slices.Equal(rm.RLFEvents(), lm.RLFEvents()) {
						t.Errorf("%s: the replay declared radio-link failures %v, the live run %v", name, rm.RLFEvents(), lm.RLFEvents())
					}
					handovers += len(lm.Events())
					rlfs += len(lm.RLFEvents())
				}
			}
		}
	}
	if handovers == 0 || rlfs == 0 && !testing.Short() {
		t.Fatalf("%d handovers and %d radio-link failures in the live runs: the comparison checks too little", handovers, rlfs)
	}
	t.Logf("%d handovers and %d radio-link failures matched", handovers, rlfs)
}
