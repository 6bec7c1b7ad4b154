package core

import "rpivideo/internal/rtp"

// WorkerJob is one job of RunOnOneWorker: a run of Config, with every media
// packet crossing the links as marshalled bytes when Wire is set.
type WorkerJob struct {
	Config Config
	Wire   bool
}

// RunOnOneWorker runs jobs back to back on one executor worker, each on the
// buffers the job before it left, and hands fold each result in order (nil
// for a job that panicked, whose error is in the returned slice).
func RunOnOneWorker(jobs []WorkerJob, fold func(i int, r *Result)) []error {
	errs := make([]error, len(jobs))
	e := executor{workers: 1, unit: "job"}
	e.run(errs, func(i int, b *runBuffers) *Result { return b.run(jobs[i].Config, jobs[i].Wire) }, fold)
	return errs
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
