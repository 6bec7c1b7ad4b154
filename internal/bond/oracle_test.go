package bond

import (
	"math/rand"
	"testing"
	"time"
)

// oracle is an independent re-statement of the failover hysteresis state
// machine, written directly from the spec in the package doc: per-path
// loss EWMA, outage-or-loss breach counting, downAfterTicks to go down, a
// probationTicks clean streak to come back, active = first live path with
// switch-back to the lowest live index. The randomized test drives the
// real Manager and this oracle with the same observation stream and
// requires them to agree at every tick.
type oracle struct {
	loss     [NumPaths]float64
	up       [NumPaths]bool
	breach   [NumPaths]int
	healthy  [NumPaths]int
	active   int
	switches int
}

func newOracle() *oracle {
	o := &oracle{}
	for i := range o.up {
		o.up[i] = true
	}
	return o
}

func (o *oracle) observeDelivery(path int) { o.loss[path] += healthAlpha * (0 - o.loss[path]) }
func (o *oracle) observeLoss(path int)     { o.loss[path] += healthAlpha * (1 - o.loss[path]) }

func (o *oracle) tick(outage [NumPaths]bool) {
	for i := 0; i < NumPaths; i++ {
		unhealthy := outage[i] || o.loss[i] > lossDown
		if o.up[i] {
			if unhealthy {
				o.breach[i]++
			} else {
				o.breach[i] = 0
			}
			if o.breach[i] >= downAfterTicks {
				o.up[i], o.breach[i], o.healthy[i] = false, 0, 0
			}
		} else {
			if !outage[i] && o.loss[i] < lossUp {
				o.healthy[i]++
			} else {
				o.healthy[i] = 0
			}
			if o.healthy[i] >= probationTicks {
				o.up[i], o.breach[i], o.healthy[i] = true, 0, 0
			}
		}
	}
	// Failover policy: if the active path is down, take the first live
	// path; otherwise prefer the lowest live index.
	if !o.up[o.active] {
		for i := 0; i < NumPaths; i++ {
			if o.up[i] {
				o.active, o.switches = i, o.switches+1
				break
			}
		}
	} else {
		for i := 0; i < o.active; i++ {
			if o.up[i] {
				o.active, o.switches = i, o.switches+1
				break
			}
		}
	}
}

// TestFailoverMatchesOracle fuzzes the hysteresis state machine against
// the oracle: random outage flips and random delivery/loss mixes per path
// per tick, across several seeds, checking up/active/switches after every
// tick.
func TestFailoverMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager(Config{Policy: PolicyFailover})
		o := newOracle()
		var outage [NumPaths]bool
		for i := 0; i < NumPaths; i++ {
			i := i
			m.SetOutageProbe(i, func(time.Duration) bool { return outage[i] })
		}
		now := time.Duration(0)
		for step := 0; step < 2000; step++ {
			for i := 0; i < NumPaths; i++ {
				// Outages persist: flip state rarely so both long and
				// short episodes occur.
				if rng.Float64() < 0.05 {
					outage[i] = !outage[i]
				}
				// A random mix of deliveries and losses; lossy phases
				// (p=0.2) push the EWMA over the breach threshold.
				lossy := rng.Float64() < 0.2
				for k, n := 0, rng.Intn(8); k < n; k++ {
					if lossy && rng.Float64() < 0.5 {
						m.ObserveLoss(i)
						o.observeLoss(i)
					} else {
						m.ObserveDelivery(i, 40*time.Millisecond, 1200)
						o.observeDelivery(i)
					}
				}
			}
			now += 50 * time.Millisecond
			m.Tick(now)
			o.tick(outage)
			for i := 0; i < NumPaths; i++ {
				if m.paths[i].up != o.up[i] {
					t.Fatalf("seed %d step %d: path %d up=%v, oracle %v", seed, step, i, m.paths[i].up, o.up[i])
				}
			}
			if m.active != o.active || m.Switches != o.switches {
				t.Fatalf("seed %d step %d: active=%d switches=%d, oracle %d/%d",
					seed, step, m.active, m.Switches, o.active, o.switches)
			}
		}
	}
}
