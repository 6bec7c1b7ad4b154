package core

import (
	"time"

	"rpivideo/internal/endpoint"
	"rpivideo/internal/link"
	"rpivideo/internal/rtp"
)

// WorkerJob is one job of RunOnOneWorker: a run of Config, with every media
// packet crossing the links as marshalled bytes when Wire is set. A job
// with a Share runs as a fleet's phase 3 does: on a sky recorded first on
// the same buffers (recordUAV, over Config.Cells) and with its uplink scaled
// by Share.
type WorkerJob struct {
	Config Config
	Wire   bool
	Share  func(time.Duration) float64
}

// run runs job on b and builds its Result on res.
func (job WorkerJob) run(b *runBuffers, res *Result) *Result {
	if job.Share == nil {
		return b.run(res, job.Config, nil, nil, job.Wire)
	}
	k := recordUAV(new(sky), job.Config, fleetDuration(job.Config), 100*time.Millisecond, b)
	cfg := job.Config
	cfg.Cells = nil
	return b.run(res, cfg, k, job.Share, job.Wire)
}

// RunOnOneWorker runs jobs back to back on one private buffer set that
// starts empty, each on the buffers the job before it left, and hands fold
// each result in order (nil for a job that panicked, whose error is in the
// returned slice; the job after it starts on an empty set again). The
// process's pool is not touched, so what the jobs inherit does not depend
// on the runs before them.
func RunOnOneWorker(jobs []WorkerJob, fold func(i int, r *Result)) []error {
	errs := make([]error, len(jobs))
	var b *runBuffers
	e := executor{workers: 1, unit: "job"}
	e.run(errs, func(i int) *Result {
		if b == nil || errs[i-1] != nil { // the first job, or the one after a panic
			b = new(runBuffers)
		}
		return jobs[i].run(b, new(Result))
	}, fold)
	return errs
}

// RunFresh runs job on a private, empty buffer set and a new Result: the
// run the first Run of a process makes, whatever ran before it.
func RunFresh(job WorkerJob) *Result {
	return job.run(new(runBuffers), new(Result))
}

// DatagramSlots is what a video run's two endpoints hold in datagram slots
// once the run has ended, next to the datagrams their links still carry:
// UpCarried sender reports queued or in flight on the uplink, DownCarried
// feedback packets on the downlink.
type DatagramSlots struct {
	Sender, Receiver       rtp.PoolStats
	UpCarried, DownCarried int
}

// SetDatagramTap has fn see every video run's DatagramSlots from now until
// the returned restore is called.
func SetDatagramTap(fn func(r *Result, s DatagramSlots)) (restore func()) {
	datagramTap = func(r *Result, snd, rcv rtp.PoolStats, up, down int) {
		fn(r, DatagramSlots{Sender: snd, Receiver: rcv, UpCarried: up, DownCarried: down})
	}
	return func() { datagramTap = nil }
}

// WireFlights are TestWireMatchesSim's flights, for the tests outside the
// package that run them in wire mode.
var WireFlights = wireFlights

// PacketSlots is a video run's packet pool once the run has ended, next to
// the references its holders still have then: Queued packets in the send
// queue, Cached ones in the retransmission cache, and the media copies and
// retransmissions the uplinks still carry (none in a wire run, whose link
// copies are bytes).
type PacketSlots struct {
	Pool                                     rtp.PoolStats
	Queued, Cached, MediaCarried, RTXCarried int
}

// SetPacketTap has fn see every video run's PacketSlots from now until the
// returned restore is called.
func SetPacketTap(fn func(r *Result, s PacketSlots)) (restore func()) {
	poolTap = func(r *Result, snd *endpoint.Sender, uplinks []*link.Link, wire bool) {
		s := PacketSlots{Pool: snd.Video.PacketPool(), Queued: snd.Video.Queue().Len()}
		if snd.Cache != nil {
			s.Cached = snd.Cache.Len()
		}
		if !wire { // a wire run's link copies are bytes, their references ended at Marshalled
			carried := func(c link.Counts) int { return c.Sent - c.Delivered - c.Drops() }
			for _, l := range uplinks {
				s.MediaCarried += carried(l.Count(link.Media))
			}
			s.RTXCarried = carried(uplinks[0].Count(link.RTX))
		}
		fn(r, s)
	}
	return func() { poolTap = nil }
}
