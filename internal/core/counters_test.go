package core_test

import (
	"fmt"
	"testing"

	"rpivideo/internal/core"
	"rpivideo/internal/experiments"
	"rpivideo/internal/link"
	"rpivideo/internal/obs"
)

// TestResultCountersMatchTrace: a run's media counters are its trace's media
// events (Flags 0) on every uplink path, up and up2 — KindSend, KindRecv and
// KindDrop by reason against PacketsSent, PacketsDelivered, PacketsLost,
// Overflows, AQMDrops and StaleDrops — for every golden scenario's
// configuration and the resilient-75s flight, whose secondary path flushes
// stale packets too.
func TestResultCountersMatchTrace(t *testing.T) {
	type flight struct {
		name string
		cfg  core.Config
	}
	var flights []flight
	for _, sc := range experiments.Scenarios() {
		flights = append(flights, flight{sc.Name, sc.Config})
	}
	for _, seed := range core.Resilient75sSeeds() {
		cfg := core.Resilient75s()
		cfg.Seed = seed
		flights = append(flights, flight{fmt.Sprintf("resilient-75s/seed=%d", seed), cfg})
	}
	secondaryStale := 0
	for _, f := range flights {
		t.Run(f.name, func(t *testing.T) {
			f.cfg.Trace = true
			r := core.Run(f.cfg)
			// Sent, delivered, then drops in link.DropReason order: loss,
			// overflow, AQM, stale.
			var fromTrace [6]int
			for _, e := range r.Trace.Events() {
				if e.Flags != 0 || (e.Dir != obs.DirUp && e.Dir != obs.DirUp2) {
					continue
				}
				switch e.Kind {
				case obs.KindSend:
					fromTrace[0]++
				case obs.KindRecv:
					fromTrace[1]++
				case obs.KindDrop:
					fromTrace[2+e.Aux]++
					if e.Dir == obs.DirUp2 && link.DropReason(e.Aux) == link.DropStale {
						secondaryStale++
					}
				}
			}
			got := [6]int{r.PacketsSent, r.PacketsDelivered, r.PacketsLost, r.Overflows, r.AQMDrops, r.StaleDrops}
			if got != fromTrace {
				t.Errorf("sent, delivered, lost, overflow, aqm, stale: Result %v, trace %v", got, fromTrace)
			}
			if r.PacketsSent == 0 {
				t.Error("no media sent")
			}
		})
	}
	if secondaryStale == 0 {
		t.Error("no secondary path flushed a stale packet: the bonded sum is untested")
	}
}
