package obs

// SetPipelineObserver installs f as the ordered pipeline's in-flight
// observer for the external tests; nil removes it.
func SetPipelineObserver(f func(inFlight int)) { pipelineObserver = f }
