package experiments

import (
	"rpivideo/internal/cell"
	"rpivideo/internal/core"
)

// fig13 reproduces Fig. 13 (Appendix): ICMP-style RTTs at different
// altitudes, without cross traffic, in both environments.
func fig13(o Options, r *Report) {
	grid := []float64{50, 100, 500}
	for _, env := range []cell.Environment{cell.Urban, cell.Rural} {
		res := campaign(core.Config{Env: env, Air: true, Workload: core.WorkloadPing, Seed: o.Seed}, o)
		for b := core.Alt0to20; b <= core.Alt101to140; b++ {
			d := &res.RTTByAlt[b]
			name := env.String() + " " + b.String()
			r.Lines = append(r.Lines, cdfRow(name, d, grid))
			r.stat(name+".rtt≥100", d, d.FracAtOrAbove(100))
		}
	}
}
