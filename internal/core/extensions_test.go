package core

import (
	"testing"
	"time"

	"rpivideo/internal/bond"
	"rpivideo/internal/cell"
)

func TestDAPSRemovesExecutionGaps(t *testing.T) {
	cfg := Config{Env: cell.Urban, Air: true, CC: CCStatic, Seed: 7, DAPS: true}
	r := Run(cfg)
	if len(r.Handovers) == 0 {
		t.Fatal("no handovers")
	}
	for _, ev := range r.Handovers {
		if ev.HET != 0 {
			t.Fatalf("DAPS handover with HET %v", ev.HET)
		}
	}
	// The latency tail should be clearly better than break-before-make.
	plain := Run(Config{Env: cell.Urban, Air: true, CC: CCStatic, Seed: 7})
	if r.OWDms.Quantile(0.99) >= plain.OWDms.Quantile(0.99) {
		t.Errorf("DAPS p99 %.0f ms not below baseline %.0f ms",
			r.OWDms.Quantile(0.99), plain.OWDms.Quantile(0.99))
	}
}

func TestMultipathDeduplicates(t *testing.T) {
	r := Run(Config{Env: cell.Rural, Air: true, CC: CCStatic, Seed: 5, Duration: 60 * time.Second,
		Bond: bond.Config{Policy: bond.PolicyDuplicate}})
	if r.MultipathDuplicates == 0 {
		t.Fatal("no duplicate copies recorded on a dual-path run")
	}
	// The player must not see duplicates: frames played once each.
	if r.FramesPlayed+r.FramesSkipped > 60*30+40 {
		t.Errorf("frame count %d exceeds the source rate: duplicates leaked",
			r.FramesPlayed+r.FramesSkipped)
	}
	single := Run(Config{Env: cell.Rural, Air: true, CC: CCStatic, Seed: 5, Duration: 60 * time.Second})
	if r.FramesSkipped > single.FramesSkipped {
		t.Errorf("duplication increased frame loss: %d vs %d", r.FramesSkipped, single.FramesSkipped)
	}
}

func TestAQMDropsCounted(t *testing.T) {
	// Oversubscribed ground link: CoDel must act.
	r := Run(Config{Env: cell.Urban, Air: false, CC: CCStatic, StaticRate: 34e6, Seed: 3, AQM: true})
	if r.AQMDrops == 0 {
		t.Error("no CoDel drops on an oversubscribed link")
	}
	off := Run(Config{Env: cell.Urban, Air: false, CC: CCStatic, StaticRate: 34e6, Seed: 3})
	if off.AQMDrops != 0 {
		t.Errorf("AQM drops counted with AQM off: %d", off.AQMDrops)
	}
}

func TestExtensionsDeterministic(t *testing.T) {
	cfg := Config{Env: cell.Rural, Air: true, CC: CCStatic, Seed: 11, Duration: 40 * time.Second,
		Bond: bond.Config{Policy: bond.PolicyDuplicate}, DAPS: true, AQM: true}
	a, b := Run(cfg), Run(cfg)
	if a.MultipathDuplicates != b.MultipathDuplicates || a.AQMDrops != b.AQMDrops ||
		a.PacketsDelivered != b.PacketsDelivered {
		t.Error("extension runs not deterministic")
	}
}
