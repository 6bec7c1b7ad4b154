package main

import (
	"math"
	"testing"
)

// The slowdown of a round is the median of the four kernel timings around
// it, fewer at the ends of the run, over the nominal kernel time.
func TestHostSlowdownWindow(t *testing.T) {
	k := refKernelSeconds
	kernels := []float64{1 * k, 2 * k, 3 * k, 40 * k, 5 * k, 6 * k} // five rounds; one hiccup
	for r, want := range []float64{
		2,   // 1 2 3
		2.5, // 1 2 3 40
		4,   // 2 3 40 5
		5.5, // 3 40 5 6
		6,   // 40 5 6
	} {
		if got := hostSlowdown(kernels, r); math.Abs(got-want) > 1e-9 {
			t.Errorf("round %d: slowdown %v, want %v", r, got, want)
		}
	}
}

// The kernel is deterministic work: both lanes finish with the same sum
// (refKernel panics otherwise) and it takes measurable time.
func TestRefKernelRuns(t *testing.T) {
	if d := refKernel(); d <= 0 {
		t.Errorf("reference kernel took %v", d)
	}
}
