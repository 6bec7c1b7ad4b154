package core

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
