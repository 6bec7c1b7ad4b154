package core_test

import (
	"sort"
	"strings"
	"testing"

	"rpivideo/internal/core"
	"rpivideo/internal/experiments"
	"rpivideo/internal/rtp"
)

// TestDatagramSlotsConserved is the datagram half of the released-exactly-
// once identity, on the runs conservedRuns makes. When a run ends, each
// endpoint still holds exactly the datagrams its link still carries — the
// sender's reports queued or in flight on the uplink, the receiver's
// feedback on the downlink — so every other datagram it sent came back
// through one of the link's two exits; a second Release would have
// panicked. And no pool holds more slots than the highest peak of held
// datagrams of the runs it served plus the one block that peak opened —
// outside the rtppoison build, which never reuses a released slot. A pool
// keeps its slots from run to run on the endpoint a buffer set holds, so
// the bound is the highest peak of every run since the sets were dropped.
func TestDatagramSlotsConserved(t *testing.T) {
	var probe rtp.DatagramPool
	d := probe.Get()
	d.Release()
	recycled := probe.Get() == d
	core.DropPooledBuffers()
	peak := map[string]int{}
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
				peak[end] = max(peak[end], st.PeakLive)
				if st.PeakLive == 0 || recycled && st.Slots > peak[end]+rtp.DatagramBlock {
					t.Errorf("%s run %d: %s slots %+v: none used, or more than the highest peak %d plus one block of %d",
						name, i, end, st, peak[end], rtp.DatagramBlock)
				}
			}
		}
		t.Logf("%s: %d runs, first %+v", name, len(runs), runs[0])
	}
	conservedRuns(t, check)
}

// conservedRuns hands check, by name, every run set the conservation tests
// hold: each golden scenario (the fleet one through its UAVs, on one worker
// so that a tap appends from the run's goroutine), the bonded, repaired,
// faulted resilient-75s flight, and each flight of TestWireMatchesSim once
// more in wire mode.
func conservedRuns(t *testing.T, check func(name string, run func())) {
	for _, sc := range experiments.Scenarios() {
		if sc.Fleet > 0 {
			check(sc.Name, func() {
				if _, err := experiments.RunFleetScenarioWithOptions(sc, experiments.ScenarioOptions{Workers: 1}); err != nil {
					t.Fatal(err)
				}
			})
			continue
		}
		check(sc.Name, func() { core.Run(sc.Config) })
	}
	resilient := core.Resilient75s()
	resilient.Seed = 7
	check("resilient-75s", func() { core.Run(resilient) })
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

// TestPacketSlotsConserved is the packet half of the same identity, with
// the retransmissions in it, on the same runs. When a run ends, its
// sender's pool carries exactly the references still held —
// one per packet in the send queue, per packet in the retransmission cache,
// per media copy and per retransmission still on the uplinks. So every
// retransmission's one reference came back through one of the link's two
// exits, once: what the run still holds of them is what its uplink
// carries, none in the runs here. The repaired runs must have sent
// retransmissions for this to say anything.
func TestPacketSlotsConserved(t *testing.T) {
	var runs []core.PacketSlots
	var results []*core.Result
	restore := core.SetPacketTap(func(r *core.Result, s core.PacketSlots) {
		runs, results = append(runs, s), append(results, r)
	})
	defer restore()
	check := func(name string, fn func()) {
		runs, results = runs[:0], results[:0]
		fn()
		if len(runs) == 0 {
			t.Fatalf("%s: no video run reported its packet slots", name)
		}
		rtx := 0
		for i, s := range runs {
			media := s.Queued + s.Cached + s.MediaCarried
			if s.Pool.Refs != media+s.RTXCarried {
				t.Errorf("%s run %d: pool %+v, with %d queued, %d cached, %d media copies and %d retransmissions on the uplinks: %d retransmission references held, %d carried",
					name, i, s.Pool, s.Queued, s.Cached, s.MediaCarried, s.RTXCarried, s.Pool.Refs-media, s.RTXCarried)
			}
			rtx += results[i].RtxBytes
		}
		t.Logf("%s: %d runs, %d RTX bytes, first %+v", name, len(runs), rtx, runs[0])
		if strings.Contains(name, "repair") || strings.Contains(name, "resilient") {
			if rtx == 0 {
				t.Errorf("%s: no retransmission sent", name)
			}
		}
	}
	conservedRuns(t, check)
}
