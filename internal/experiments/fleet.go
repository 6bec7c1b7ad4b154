package experiments

import (
	"fmt"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/core"
)

// fleetExp runs the fleet-scale cell contention experiment: 1, 50 and 500
// UAVs fly the same urban aerial mission against one shared base-station
// map, so every UAV on a cell splits its PRBs. The shape claims: a lone UAV
// keeps the whole cell (share exactly 1, no overload); the median per-UAV
// goodput degrades monotonically with fleet size and collapses below half
// the solo rate at 500 UAVs; overload epochs and peak cell occupancy grow
// with the fleet; and at 500 UAVs proportional-fair squeezes the cell-edge
// UAV harder than round-robin without starving it outright.
func fleetExp(o Options, r *Report) {
	r.row("urban aerial static-rate mission, 8 s, shared deployment, seed %d", o.Seed)
	for _, pt := range []struct {
		size  int
		sched cell.SchedulerKind
	}{{1, cell.SchedRR}, {50, cell.SchedRR}, {500, cell.SchedRR}, {500, cell.SchedPF}} {
		fr, errs := core.RunFleet(core.FleetConfig{
			Config: core.Config{
				Env: cell.Urban, Op: cell.P1, Air: true, CC: core.CCStatic,
				Seed: o.Seed, Duration: 8 * time.Second,
			},
			Size: pt.size, Sched: pt.sched, Workers: o.Workers,
		})
		mustRun(errs)
		r.row("%4d UAVs %-3s median goodput %6.2f Mbps  min share %.4f  overload epochs %5d  peak cell users %3d  handovers %4d",
			pt.size, pt.sched, fr.MedianUAVGoodput(), fr.MinShare, fr.OverloadEpochs, fr.PeakCellUsers, fr.Summary.Handovers)
		name := fmt.Sprintf("%s%d", pt.sched, pt.size)
		r.set(name+".median_goodput", fr.MedianUAVGoodput())
		r.set(name+".min_share", fr.MinShare)
		r.set(name+".overload_epochs", float64(fr.OverloadEpochs))
		r.set(name+".peak_cell_users", float64(fr.PeakCellUsers))
		r.set(name+".handovers", float64(fr.Summary.Handovers))
	}
}
