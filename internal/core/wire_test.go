package core

import (
	"bytes"
	"testing"
	"time"

	"rpivideo/internal/bond"
	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
	"rpivideo/internal/repair"
)

// TestWireMatchesSim is the differential check of the live path against the
// simulated one, on the virtual clock: each flight runs once with media
// crossing the links as *rtp.Packet pointers (what Run does) and once with
// every packet marshalled on departure and re-parsed on arrival through
// endpoint.Marshalled and Receiver.OnDatagram — the glue cmd/rpsend,
// cmd/rprecv and examples/liveudp put around a socket. The feedback
// direction crosses as bytes through Sender.OnDatagram in both. The two must
// be indistinguishable: the same trace, event for event, and the same
// metrics registry, byte for byte.
func TestWireMatchesSim(t *testing.T) {
	export := func(res *Result) (trace, metrics []byte) {
		var tb, mb bytes.Buffer
		if err := WriteCampaignTrace(&tb, []*Result{res}); err != nil {
			t.Fatal(err)
		}
		if err := WriteCampaignMetrics(&mb, []*Result{res}); err != nil {
			t.Fatal(err)
		}
		return tb.Bytes(), mb.Bytes()
	}
	for name, cfg := range wireFlights() {
		cfg.Trace = true
		simRes, wireRes := RunFresh(WorkerJob{Config: cfg}), RunFresh(WorkerJob{Config: cfg, Wire: true})
		simTrace, simMetrics := export(simRes)
		wireTrace, wireMetrics := export(wireRes)
		if !bytes.Equal(simTrace, wireTrace) {
			t.Errorf("%s: trace differs between pointer and wire transport (%d vs %d bytes)", name, len(simTrace), len(wireTrace))
		}
		if !bytes.Equal(simMetrics, wireMetrics) {
			t.Errorf("%s: metrics registry differs between pointer and wire transport:\n%s\nvs\n%s", name, simMetrics, wireMetrics)
		}
		if simRes.FramesPlayed == 0 {
			t.Errorf("%s: no frames played", name)
		}
		if name == "bonded-repair" && (simRes.PacketsRepaired == 0 || simRes.MultipathDuplicates == 0 || simRes.KeyframeRequests == 0) {
			t.Errorf("%s: repaired %d, duplicates %d, keyframe requests %d: every stage must do work",
				name, simRes.PacketsRepaired, simRes.MultipathDuplicates, simRes.KeyframeRequests)
		}
	}
}

// wireFlights are the flights TestWireMatchesSim runs both ways.
func wireFlights() map[string]Config {
	return map[string]Config{
		// The urban-gcc and urban-scream golden scenarios.
		"urban-gcc":    {Env: cell.Urban, Op: cell.P1, CC: CCGCC, Seed: 1, Duration: 3 * time.Second},
		"urban-scream": {Env: cell.Urban, Op: cell.P1, Air: true, CC: CCSCReAM, Seed: 1, Duration: 4 * time.Second},
		// Every stage at once: striped bonded paths (dedup, reorder), NACK/RTX
		// repair through a loss fade, a primary-path blackout with RLF, and a
		// coverage hole on both paths for the watchdog and the PLI keyframe
		// recovery.
		"bonded-repair": {
			Env: cell.Rural, Op: cell.P1, Air: true, CC: CCGCC, Seed: 1, Duration: 12 * time.Second,
			Bond:   bond.Config{Policy: bond.PolicySpray},
			Repair: repair.Config{Enabled: true},
			Faults: fault.Config{
				RLF: true, Watchdog: true, KeyframeRecovery: true,
				Windows: []fault.Window{
					{Start: 3 * time.Second, Duration: 200 * time.Millisecond, Loss: true},
					{Start: 5 * time.Second, Duration: 2 * time.Second, Path: fault.PathPrimary},
					{Start: 9 * time.Second, Duration: time.Second},
				},
			},
		},
	}
}
