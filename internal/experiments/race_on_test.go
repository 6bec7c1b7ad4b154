//go:build race

package experiments

// raceEnabled: the race detector instruments every allocation, so the cost
// pins' allocation rows do not apply under it.
const raceEnabled = true
