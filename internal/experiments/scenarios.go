package experiments

import (
	"fmt"
	"time"

	"rpivideo/internal/bond"
	"rpivideo/internal/cell"
	"rpivideo/internal/core"
	"rpivideo/internal/fault"
	"rpivideo/internal/obs"
	"rpivideo/internal/repair"
)

// Scenario is one small named configuration for observability runs: the
// rpbench -scenario mode traces it, exports its metrics, and the golden
// regression suite pins its trace bytes. Scenarios are deliberately short —
// seconds, not the six-minute campaign flights — so golden files stay small
// and the regression tests run under the race detector.
type Scenario struct {
	// Name is the -scenario / golden-file identifier.
	Name string
	// Desc is the one-line -list description.
	Desc string
	// Config is the run configuration (Seed is the campaign base seed;
	// per-run seeds derive from it).
	Config core.Config
	// Runs is the campaign size.
	Runs int
	// Fleet, when positive, makes this a fleet scenario: Fleet UAVs run
	// against one shared base-station map (core.RunFleet) instead of a
	// campaign of independent runs. Sched selects the per-cell PRB
	// scheduler. Fleet scenarios go through RunFleetScenarioWithOptions.
	Fleet int
	Sched cell.SchedulerKind
}

// Scenarios returns the named observability scenarios.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name: "urban-gcc",
			Desc: "urban ground GCC, 3 s — the clean-path trace",
			Config: core.Config{
				Env:      cell.Urban,
				Op:       cell.P1,
				CC:       core.CCGCC,
				Seed:     1,
				Duration: 3 * time.Second,
			},
			Runs: 1,
		},
		{
			Name: "urban-scream",
			Desc: "urban aerial SCReAM, 4 s — the RFC 8888 feedback-path trace",
			Config: core.Config{
				Env:      cell.Urban,
				Op:       cell.P1,
				Air:      true,
				CC:       core.CCSCReAM,
				Seed:     1,
				Duration: 4 * time.Second,
			},
			Runs: 1,
		},
		{
			Name: "robust-blackout",
			Desc: "urban ground GCC with a 2 s blackout at 3 s, 8 s — the fault-path trace",
			Config: core.Config{
				Env:      cell.Urban,
				Op:       cell.P1,
				CC:       core.CCGCC,
				Seed:     1,
				Duration: 8 * time.Second,
				Faults: fault.Config{
					Windows:          []fault.Window{{Start: 3 * time.Second, Duration: 2 * time.Second, Dir: fault.Both}},
					Watchdog:         true,
					KeyframeRecovery: true,
				},
			},
			Runs: 1,
		},
		{
			Name: "repair-blackout",
			Desc: "urban ground GCC with NACK/RTX repair through a 60 ms loss fade at 1.5 s and a 2 s blackout at 3 s, 8 s — the repair-path trace",
			Config: core.Config{
				Env:      cell.Urban,
				Op:       cell.P1,
				CC:       core.CCGCC,
				Seed:     1,
				Duration: 8 * time.Second,
				Faults: fault.Config{
					Windows: []fault.Window{
						// The fade exercises the full repair wire path
						// (nack-sent → rtx-sent → repair-ok); the blackout
						// exercises the outage guard's wholesale hand-off
						// to the PLI path (repair-abandoned).
						{Start: 1500 * time.Millisecond, Duration: 60 * time.Millisecond, Dir: fault.Both, Loss: true},
						{Start: 3 * time.Second, Duration: 2 * time.Second, Dir: fault.Both},
					},
					Watchdog:         true,
					KeyframeRecovery: true,
				},
				Repair: repair.Config{Enabled: true},
			},
			Runs: 1,
		},
		{
			Name: "bond-rlf",
			Desc: "urban ground GCC, dual-operator failover through a 2 s primary-path blackout with RLF at 3 s, 8 s — the bonding trace",
			Config: core.Config{
				Env:      cell.Urban,
				Op:       cell.P1,
				CC:       core.CCGCC,
				Seed:     1,
				Duration: 8 * time.Second,
				Bond:     bond.Config{Policy: bond.PolicyFailover},
				Faults: fault.Config{
					Windows:          []fault.Window{{Start: 3 * time.Second, Duration: 2 * time.Second, Dir: fault.Both, Path: fault.PathPrimary}},
					RLF:              true,
					Watchdog:         true,
					KeyframeRecovery: true,
				},
			},
			Runs: 1,
		},
		{
			Name: "edge-rlf",
			Desc: "urban aerial GCC 9 km out at the cell grid's edge with radio-link-failure supervision, 10 s — the radio trace: a handover and two radio-link failures",
			Config: core.Config{
				Env:      cell.Urban,
				Op:       cell.P1,
				Air:      true,
				CC:       core.CCGCC,
				Seed:     2,
				Duration: 10 * time.Second,
				OffsetX:  9000,
				Faults:   fault.Config{RLF: true},
			},
			Runs: 1,
		},
		{
			Name: "fleet-contention",
			Desc: "urban aerial static-rate fleet of 8 on one shared cell map (round-robin PRB split), 3 s — the contention trace",
			Config: core.Config{
				Env:      cell.Urban,
				Op:       cell.P1,
				Air:      true,
				CC:       core.CCStatic,
				Seed:     1,
				Duration: 3 * time.Second,
			},
			Runs:  1,
			Fleet: 8,
		},
	}
}

// ScenarioByName resolves a scenario by its identifier.
func ScenarioByName(name string) (Scenario, error) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("unknown scenario %q", name)
}

// ScenarioOptions tunes scenario execution beyond the scenario's own
// definition. The zero value runs the scenario exactly as pinned.
type ScenarioOptions struct {
	// Seed overrides the scenario's base seed when non-zero.
	Seed int64
	// Workers is the campaign worker count (0 = one per CPU). Results are
	// identical at any setting.
	Workers int
	// Runs overrides the scenario's campaign size when positive — the
	// rpbench -runs flag, mirroring the distributed mode's behavior. The
	// golden-trace and baseline tooling leaves this zero so checked-in
	// artifacts keep their pinned sizes.
	Runs int
	// StatusSink, when non-nil, receives live progress and per-run metrics
	// (the -serve ops endpoints). Purely observational.
	StatusSink obs.StatusSink
}

// RunScenarioWithOptions executes the scenario's campaign with tracing
// enabled and returns the per-run results in run-index order. Results are
// identical at any worker count.
func RunScenarioWithOptions(sc Scenario, o ScenarioOptions) ([]*core.Result, error) {
	if sc.Fleet > 0 {
		return nil, fmt.Errorf("scenario %s is a fleet scenario: use RunFleetScenarioWithOptions", sc.Name)
	}
	cfg := sc.Config
	cfg.Trace = true
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	runs := sc.Runs
	if o.Runs > 0 {
		runs = o.Runs
	}
	results, errs := core.RunCampaignWithOptions(cfg, runs, core.CampaignOptions{Workers: o.Workers, StatusSink: o.StatusSink})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scenario %s run %d: %w", sc.Name, i, err)
		}
	}
	return results, nil
}

// RunFleetScenarioWithOptions executes a fleet scenario: sc.Fleet UAVs on
// one shared base-station map under sc.Sched, with the per-cell event
// timeline always recorded (it is the fleet counterpart of the per-run
// trace). ScenarioOptions.Runs is ignored: a fleet's size is the
// scenario's, not a campaign length. The result is byte-identical at any
// worker count.
func RunFleetScenarioWithOptions(sc Scenario, o ScenarioOptions) (*core.FleetResult, error) {
	if sc.Fleet <= 0 {
		return nil, fmt.Errorf("scenario %s is not a fleet scenario", sc.Name)
	}
	cfg := sc.Config
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	fr, errs := core.RunFleet(core.FleetConfig{
		Config:     cfg,
		Size:       sc.Fleet,
		Sched:      sc.Sched,
		Workers:    o.Workers,
		Events:     true,
		StatusSink: o.StatusSink,
	})
	for u, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scenario %s uav %d: %w", sc.Name, u, err)
		}
	}
	return fr, nil
}
