package core_test

import (
	"sort"
	"testing"

	"rpivideo/internal/core"
	"rpivideo/internal/experiments"
	"rpivideo/internal/rtp"
)

// TestDatagramSlotsConserved is the datagram half of the released-exactly-
// once identity. Every golden scenario runs (the fleet one through its
// UAVs), and every flight of TestWireMatchesSim runs once more in wire mode.
// When a run ends, each endpoint still holds exactly the datagrams its link
// still carries — the sender's reports queued or in flight on the uplink,
// the receiver's feedback on the downlink — so every other datagram it sent
// came back through one of the link's two exits; a second Release would
// have panicked. And no pool holds more slots than its peak of held
// datagrams plus the one block that peak opened — outside the rtppoison
// build, which never reuses a released slot.
func TestDatagramSlotsConserved(t *testing.T) {
	var probe rtp.DatagramPool
	d := probe.Get()
	d.Release()
	recycled := probe.Get() == d
	var runs []core.DatagramSlots
	restore := core.SetDatagramTap(func(_ *core.Result, s core.DatagramSlots) { runs = append(runs, s) })
	defer restore()
	check := func(name string, fn func()) {
		runs = runs[:0]
		fn()
		if len(runs) == 0 {
			t.Fatalf("%s: no video run reported its datagram slots", name)
		}
		for i, s := range runs {
			if s.Sender.Live != s.UpCarried || s.Receiver.Live != s.DownCarried {
				t.Errorf("%s run %d: sender holds %d datagrams with %d on the uplink, receiver %d with %d on the downlink",
					name, i, s.Sender.Live, s.UpCarried, s.Receiver.Live, s.DownCarried)
			}
			for end, st := range map[string]rtp.PoolStats{"sender": s.Sender, "receiver": s.Receiver} {
				if st.PeakLive == 0 || recycled && st.Slots > st.PeakLive+rtp.DatagramBlock {
					t.Errorf("%s run %d: %s slots %+v: none used, or more than the peak plus one block of %d",
						name, i, end, st, rtp.DatagramBlock)
				}
			}
		}
		t.Logf("%s: %d runs, first %+v", name, len(runs), runs[0])
	}
	for _, sc := range experiments.Scenarios() {
		if sc.Fleet > 0 {
			check(sc.Name, func() {
				// One worker: the tap appends from the run's goroutine.
				if _, err := experiments.RunFleetScenarioWithOptions(sc, experiments.ScenarioOptions{Workers: 1}); err != nil {
					t.Fatal(err)
				}
			})
			continue
		}
		check(sc.Name, func() { core.Run(sc.Config) })
	}
	flights := core.WireFlights()
	names := make([]string, 0, len(flights))
	for name := range flights {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		check(name+" wire", func() {
			core.RunOnOneWorker([]core.WorkerJob{{Config: flights[name], Wire: true}}, func(int, *core.Result) {})
		})
	}
}
