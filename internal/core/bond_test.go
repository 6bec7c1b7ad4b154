package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"rpivideo/internal/bond"
	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
)

// bondFingerprint extends faultFingerprint with every bonding field so
// bonded runs can be compared byte-for-byte across worker counts.
func bondFingerprint(r *Result) string {
	var sb strings.Builder
	sb.WriteString(faultFingerprint(r))
	fmt.Fprintf(&sb, "switches=%d down=%d up=%d late=%d forced=%d dups=%d\n",
		r.BondSwitches, r.BondPathDownEvents, r.BondPathUpEvents,
		r.BondReorderLate, r.BondReorderForced, r.MultipathDuplicates)
	for i, p := range r.BondPaths {
		fmt.Fprintf(&sb, "path%d=%+v\n", i, p)
	}
	return sb.String()
}

// bondedConfig scripts a primary-path blackout with RLF so the health
// monitor has something to fail over from.
func bondedConfig(p bond.Policy) Config {
	return Config{
		Env: cell.Urban, Air: true, CC: CCGCC, Seed: 42, Duration: 30 * time.Second,
		Bond: bond.Config{Policy: p},
		Faults: fault.Config{
			Windows: []fault.Window{
				{Start: 10 * time.Second, Duration: 2 * time.Second, Dir: fault.Both, Path: fault.PathPrimary},
			},
			RLF:              true,
			Watchdog:         true,
			KeyframeRecovery: true,
		},
	}
}

// TestBondDeterministicAcrossWorkers: every scheduler policy must reproduce
// byte-identically — health events, failovers, reorder releases and per-path
// counters included — serially and at any campaign worker count.
func TestBondDeterministicAcrossWorkers(t *testing.T) {
	for _, p := range bond.Policies() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			cfg := bondedConfig(p)
			const runs = 2
			serial, serr := RunCampaignWithOptions(cfg, runs, CampaignOptions{Workers: 1})
			par, perr := RunCampaignWithOptions(cfg, runs, CampaignOptions{Workers: 4})
			for i := 0; i < runs; i++ {
				if serr[i] != nil || perr[i] != nil {
					t.Fatalf("run %d errored: serial %v, parallel %v", i, serr[i], perr[i])
				}
				a, b := bondFingerprint(serial[i]), bondFingerprint(par[i])
				if a != b {
					t.Errorf("bonded run %d differs between serial and parallel:\n--- serial ---\n%s--- parallel ---\n%s", i, a, b)
				}
			}
			if a, b := bondFingerprint(Run(cfg)), bondFingerprint(Run(cfg)); a != b {
				t.Errorf("bonded run not reproducible:\n--- first ---\n%s--- second ---\n%s", a, b)
			}
		})
	}
}

// TestBondFailoverReacts: a failover run through a primary blackout must
// actually switch paths, record the health events, and keep both path
// stat rows populated.
func TestBondFailoverReacts(t *testing.T) {
	r := Run(bondedConfig(bond.PolicyFailover))
	if r.BondSwitches < 1 {
		t.Errorf("no failover switches through a 2 s primary blackout")
	}
	if r.BondPathDownEvents < 1 || r.BondPathUpEvents < 1 {
		t.Errorf("health events not recorded: down=%d up=%d", r.BondPathDownEvents, r.BondPathUpEvents)
	}
	if len(r.BondPaths) != bond.NumPaths {
		t.Fatalf("BondPaths has %d rows, want %d", len(r.BondPaths), bond.NumPaths)
	}
	for i, p := range r.BondPaths {
		if p.Sent == 0 {
			t.Errorf("path %d sent nothing (probing should keep idle paths warm): %+v", i, p)
		}
	}
	if r.BondPaths[0].DownMs <= 0 {
		t.Errorf("primary path recorded no downtime through its blackout: %+v", r.BondPaths[0])
	}
}

// TestBondDuplicateMatchesLegacyMultipath: the duplicate policy feeds the
// legacy MultipathDuplicates counter (still a baseline registry key) — it
// must equal the copies the per-path rows record as suppressed.
func TestBondDuplicateMatchesLegacyMultipath(t *testing.T) {
	r := Run(bondedConfig(bond.PolicyDuplicate))
	if r.MultipathDuplicates == 0 {
		t.Error("duplicate policy suppressed no copies")
	}
	var suppressed int64
	for _, p := range r.BondPaths {
		suppressed += p.Suppressed
	}
	if int(suppressed) != r.MultipathDuplicates {
		t.Errorf("MultipathDuplicates = %d, per-path Suppressed sums to %d", r.MultipathDuplicates, suppressed)
	}
}
