package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"rpivideo/internal/bond"
	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
	"rpivideo/internal/obs"
)

func fleetTestConfig() Config {
	return Config{Env: cell.Urban, Op: cell.P1, Air: true, CC: CCStatic, Seed: 1, Duration: 4 * time.Second}
}

// TestFleetDeterministicAcrossWorkers is the fleet determinism battery:
// for both schedulers, with and without a fault schedule, the serial and
// parallel executions must agree byte-for-byte on the exported metrics and
// exactly on the summary, the per-UAV goodput and the cell event timeline.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	cases := []struct {
		name   string
		sched  cell.SchedulerKind
		faults fault.Config
	}{
		{"rr", cell.SchedRR, fault.Config{}},
		{"pf", cell.SchedPF, fault.Config{}},
		{"rr-faults", cell.SchedRR, fault.Config{
			RLF:     true,
			Windows: []fault.Window{{Start: time.Second, Duration: 500 * time.Millisecond, Dir: fault.Both}},
		}},
		{"pf-faults", cell.SchedPF, fault.Config{
			RLF:     true,
			Windows: []fault.Window{{Start: time.Second, Duration: 500 * time.Millisecond, Dir: fault.Both}},
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := fleetTestConfig()
			cfg.Faults = tc.faults
			run := func(workers int) (*FleetResult, []byte) {
				fr, errs := RunFleet(FleetConfig{Config: cfg, Size: 16, Sched: tc.sched, Workers: workers, Events: true})
				for u, err := range errs {
					if err != nil {
						t.Fatalf("workers=%d uav %d: %v", workers, u, err)
					}
				}
				var buf bytes.Buffer
				if err := fr.WriteMetrics(&buf); err != nil {
					t.Fatalf("WriteMetrics: %v", err)
				}
				return fr, buf.Bytes()
			}
			serial, serialBytes := run(1)
			parallel, parallelBytes := run(8)
			if !bytes.Equal(serialBytes, parallelBytes) {
				t.Error("metrics JSON differs between serial and parallel execution")
			}
			if !reflect.DeepEqual(serial.Summary, parallel.Summary) {
				t.Error("summaries differ between serial and parallel execution")
			}
			if !reflect.DeepEqual(serial.CellEvents, parallel.CellEvents) {
				t.Error("cell event timelines differ between serial and parallel execution")
			}
			if !reflect.DeepEqual(serial.PerUAVGoodput.Samples(), parallel.PerUAVGoodput.Samples()) {
				t.Error("per-UAV goodput samples differ between serial and parallel execution")
			}
			var se, pe bytes.Buffer
			if err := serial.WriteCellEvents(&se); err != nil {
				t.Fatalf("WriteCellEvents: %v", err)
			}
			if err := parallel.WriteCellEvents(&pe); err != nil {
				t.Fatalf("WriteCellEvents: %v", err)
			}
			if !bytes.Equal(se.Bytes(), pe.Bytes()) {
				t.Error("cell event JSONL differs between serial and parallel execution")
			}
		})
	}
}

// TestFleetContentionMonotonic: on the fixed shared deployment, the median
// per-UAV goodput must not increase with fleet size (beyond a small float
// tolerance), and heavy contention must bite hard.
func TestFleetContentionMonotonic(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet campaign in -short mode")
	}
	sizes := []int{1, 16, 64}
	meds := make([]float64, len(sizes))
	for i, size := range sizes {
		fr, errs := RunFleet(FleetConfig{Config: fleetTestConfig(), Size: size})
		for u, err := range errs {
			if err != nil {
				t.Fatalf("size %d uav %d: %v", size, u, err)
			}
		}
		meds[i] = fr.MedianUAVGoodput()
		if size == 1 {
			if fr.MinShare != 1 {
				t.Errorf("lone UAV min share = %v, want exactly 1", fr.MinShare)
			}
			if fr.OverloadEpochs != 0 {
				t.Errorf("lone UAV overload epochs = %d, want 0", fr.OverloadEpochs)
			}
		}
	}
	const eps = 0.02 // 2% relative tolerance for sampling noise
	for i := 1; i < len(meds); i++ {
		if meds[i] > meds[i-1]*(1+eps) {
			t.Errorf("median per-UAV goodput increased with fleet size: %v at sizes %v", meds, sizes)
		}
	}
	if meds[len(meds)-1] > 0.8*meds[0] {
		t.Errorf("64-UAV median %v vs solo %v: contention should cost more than 20%%", meds[len(meds)-1], meds[0])
	}
}

// TestFleetRejectsBondedConfigs: contention models the single-operator
// chain; a bonded fleet must fail loudly instead of silently ignoring the
// second path.
func TestFleetRejectsBondedConfigs(t *testing.T) {
	cfg := fleetTestConfig()
	cfg.Bond = bond.Config{Policy: bond.PolicyDuplicate}
	fr, errs := RunFleet(FleetConfig{Config: cfg, Size: 2})
	if fr != nil || len(errs) != 1 || errs[0] == nil {
		t.Fatalf("bonded fleet: fr=%v errs=%v, want nil result and one error", fr, errs)
	}
}

// TestFleetUAVPanicsLandInErrs: UAVs whose runs panic come back as errors
// naming the UAV, are missing from the aggregate and are counted on the
// status surface — the fleet itself still returns its result.
func TestFleetUAVPanicsLandInErrs(t *testing.T) {
	cfg := fleetTestConfig()
	// A negative SCReAM feedback interval makes sim.Every panic inside Run.
	cfg.CC, cfg.ScreamFeedbackInterval = CCSCReAM, -time.Millisecond
	const size = 3
	tel := obs.NewTelemetry()
	fr, errs := RunFleet(FleetConfig{Config: cfg, Size: size, Workers: 2, StatusSink: tel})
	if fr == nil || len(errs) != size {
		t.Fatalf("fr=%v, %d errs; want a result and %d error slots", fr, len(errs), size)
	}
	for u, err := range errs {
		if want := fmt.Sprintf("fleet uav %d panicked", u); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("errs[%d] = %v, want %q", u, err, want)
		}
	}
	if fr.Summary.Runs != 0 || fr.PerUAVGoodput.N() != 0 {
		t.Errorf("failed UAVs folded: runs=%d goodput samples=%d", fr.Summary.Runs, fr.PerUAVGoodput.N())
	}
	if st, _ := tel.Status(); st.RunErrors != size || !st.Done || st.Mode != "fleet" {
		t.Errorf("terminal snapshot %+v, want %d run errors, done, mode fleet", st, size)
	}
}

func TestParseFleetSpec(t *testing.T) {
	cases := []struct {
		in    string
		size  int
		sched cell.SchedulerKind
		ok    bool
	}{
		{"1", 1, cell.SchedRR, true},
		{"500", 500, cell.SchedRR, true},
		{"50/rr", 50, cell.SchedRR, true},
		{"50/pf", 50, cell.SchedPF, true},
		{" 8/pf ", 8, cell.SchedPF, true}, // outer whitespace is trimmed
		{"8 /pf", 0, 0, false},            // inner whitespace is not
		{"0", 0, 0, false},
		{"-3", 0, 0, false},
		{"", 0, 0, false},
		{"/pf", 0, 0, false},
		{"12/", 0, 0, false},
		{"12/fair", 0, 0, false},
		{"9999999999", 0, 0, false},
	}
	for _, tc := range cases {
		size, sched, err := ParseFleetSpec(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseFleetSpec(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && (size != tc.size || sched != tc.sched) {
			t.Errorf("ParseFleetSpec(%q) = (%d, %v), want (%d, %v)", tc.in, size, sched, tc.size, tc.sched)
		}
	}
}

// FuzzParseFleetSpec: the parser must never panic, and every accepted spec
// must re-parse to the same (size, scheduler) through the canonical form.
func FuzzParseFleetSpec(f *testing.F) {
	for _, seed := range []string{"1", "500", "50/rr", "50/pf", "", "/", "0/pf", "1048577", "-9/rr", "x/y/z"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		size, sched, err := ParseFleetSpec(spec)
		if err != nil {
			return
		}
		if size < 1 || size > MaxFleetSize {
			t.Fatalf("accepted size %d outside [1, %d] from %q", size, MaxFleetSize, spec)
		}
		canon := fmt.Sprintf("%d/%s", size, sched)
		size2, sched2, err := ParseFleetSpec(canon)
		if err != nil || size2 != size || sched2 != sched {
			t.Fatalf("canonical %q does not round-trip: (%d, %v, %v)", canon, size2, sched2, err)
		}
	})
}
