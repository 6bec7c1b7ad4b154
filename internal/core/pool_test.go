package core

import (
	"testing"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/endpoint"
	"rpivideo/internal/link"
	"rpivideo/internal/rtp"
)

// TestFlightPacketPoolStaysLiveSized flies the paper's 360 s urban GCC
// flight at 25 Mbps and the bonded, repaired, faulted rural flight (its 75 s
// pin stretched to 360 s), then each at twice the length. Every packet a run
// makes comes back through the reference rule, so the sender's pool holds
// no more slots than its peak of live packets plus the block that peak
// opened, whatever the traffic. The urban flight's doubled length does not
// grow its pool; the rural one's may, by as much as its live peak rises in
// the second half.
//
// Each flight runs on a private empty buffer set (RunFresh): a pooled set
// would bring the slots of whatever ran before it in the process.
//
// Then one worker flies the urban GCC flight, the rural one and an urban
// SCReAM flight back to back on one set that starts empty. A run's pool
// starts with every slot the runs before it on the set left (runBuffers),
// so its Slots are inherited while Live and PeakLive count its own packets:
// the slots never exceed the largest PeakLive of any run so far plus one
// block.
func TestFlightPacketPoolStaysLiveSized(t *testing.T) {
	if testing.Short() {
		t.Skip("four full flights")
	}
	var pool rtp.PoolStats
	poolTap = func(_ *Result, snd *endpoint.Sender, _ []*link.Link, _ bool) { pool = snd.Video.PacketPool() }
	t.Cleanup(func() { poolTap = nil })
	resilient := Resilient75s()
	resilient.Seed = 7
	for _, c := range []struct {
		cfg     Config
		doubles bool // doubling the flight must leave the pool as it was
	}{
		{Config{Env: cell.Urban, Op: cell.P1, Air: true, CC: CCGCC, Seed: 7}, true},
		{resilient, false},
	} {
		var slots [2]int
		for i, dur := range []time.Duration{360 * time.Second, 720 * time.Second} {
			cfg := c.cfg
			cfg.Duration = dur
			res := RunFresh(WorkerJob{Config: cfg})
			if pool.Slots > pool.PeakLive+rtp.PoolBlock {
				t.Errorf("%s %v: %d packets sent; pool %+v holds more than its peak plus one block of %d",
					cfg.Env, dur, res.PacketsSent, pool, rtp.PoolBlock)
			}
			t.Logf("%s %v: %d packets sent, pool %+v", cfg.Env, dur, res.PacketsSent, pool)
			slots[i] = pool.Slots
		}
		if c.doubles && slots[1] != slots[0] {
			t.Errorf("%s: the pool went from %d to %d slots when the flight doubled", c.cfg.Env, slots[0], slots[1])
		}
	}

	urban := Config{Env: cell.Urban, Op: cell.P1, Air: true, CC: CCGCC, Seed: 7, Duration: 360 * time.Second}
	resilient.Duration = 360 * time.Second
	scream := Config{Env: cell.Urban, Op: cell.P1, Air: true, CC: CCSCReAM, Seed: 7, Duration: 30 * time.Second}
	jobs := []WorkerJob{{Config: urban}, {Config: resilient}, {Config: scream}}
	peak := 0
	errs := RunOnOneWorker(jobs, func(i int, res *Result) {
		peak = max(peak, pool.PeakLive)
		if pool.Slots > peak+rtp.PoolBlock {
			t.Errorf("serial run %d (%s %s): pool %+v holds more than the largest peak so far (%d) plus one block of %d",
				i, jobs[i].Config.Env, jobs[i].Config.CC, pool, peak, rtp.PoolBlock)
		}
		t.Logf("serial run %d (%s %s): %d packets sent, pool %+v", i, jobs[i].Config.Env, jobs[i].Config.CC, res.PacketsSent, pool)
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("serial run %d: %v", i, err)
		}
	}
}
