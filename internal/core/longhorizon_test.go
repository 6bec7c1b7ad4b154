package core

import (
	"bytes"
	"os"
	"testing"
	"time"

	"rpivideo/internal/bond"
	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
	"rpivideo/internal/repair"
)

// Resilient75s is the configuration (Seed unset) of the flight
// TestResilientLongHorizonPinned pins, and Resilient75sSeeds the seeds its
// file holds, one registry each.
func Resilient75s() Config {
	return Config{
		Env: cell.Rural, Op: cell.P1, Air: true, CC: CCGCC, Duration: 75 * time.Second,
		Bond:   bond.Config{Policy: bond.PolicySpray},
		Repair: repair.Config{Enabled: true},
		Faults: fault.Config{
			RLF: true, Watchdog: true, KeyframeRecovery: true,
			Windows: []fault.Window{
				{Start: 20 * time.Second, Duration: 2 * time.Second, Path: fault.PathPrimary},
				{Start: 35 * time.Second, Duration: 200 * time.Millisecond, Loss: true},
				{Start: 50 * time.Second, Duration: 3 * time.Second, Path: fault.PathSecondary},
				{Start: 65 * time.Second, Duration: 100 * time.Millisecond, Loss: true},
			},
		},
	}
}

func Resilient75sSeeds() []int64 { return []int64{1, DeriveSeed(7, 0)} }

// TestResilientLongHorizonPinned pins the metrics of a bonded, repaired,
// faulted flight long enough to reach what no golden or baseline (all ≤ 8 s,
// 240 frames) does: the sender's frame registry past its 1 200-frame window,
// the RTX cache evicting by age under sustained load and the bond dedup
// several times past its 8 192-sequence horizon. (At the rural rate 75 s is
// ≈49 k packets, short of a 16-bit wrap; the wrap is the oracle tests' and
// the benchmark digest's to cover.) Metrics only — a 75 s trace would be
// several MB. Regenerate with
//
//	go test ./internal/core -run TestResilientLongHorizonPinned -update
//
// only for an intentional behaviour change; a speed-only change to any of
// those structures must leave the file byte-identical.
func TestResilientLongHorizonPinned(t *testing.T) {
	cfg := Resilient75s()
	// One JSON array, one registry per seed.
	var got bytes.Buffer
	got.WriteString("[\n")
	for i, seed := range Resilient75sSeeds() {
		if i > 0 {
			got.WriteString(",\n")
		}
		cfg.Seed = seed
		res := Run(cfg)
		if frames := res.FramesPlayed + res.FramesSkipped; frames <= 1200 || res.PacketsSent <= 2*dedupHorizon {
			t.Fatalf("seed %d: %d frames, %d packets: the run must outlast the frame registry window and the dedup horizon",
				seed, frames, res.PacketsSent)
		}
		if res.PacketsRepaired == 0 || res.MultipathDuplicates == 0 {
			t.Fatalf("seed %d: repaired %d, duplicates suppressed %d: repair and dedup must both do work",
				seed, res.PacketsRepaired, res.MultipathDuplicates)
		}
		if err := res.MetricsRegistry().WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
	}
	got.WriteString("]\n")

	const golden = "testdata/resilient-75s.metrics.json"
	if *updateWire {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("long-horizon resilient metrics drifted from %s (%d vs %d bytes); diff a -update run against the checked-in file",
			golden, got.Len(), len(want))
	}
}
