package bond

import "time"

// Scheduler is the bonding routing policy. Implementations must be
// deterministic — no randomness, no map iteration — and keep any state of
// their own inside the Manager or in plain fields.
type Scheduler interface {
	// Tick runs after the Manager's health pass each monitor tick, letting
	// the policy react to up/down transitions (e.g. switch the active path).
	Tick(m *Manager, now time.Duration)
	// Route picks the path set carrying one media packet of size bytes.
	// Returning the empty set defers to the Manager's fallback (the active
	// path).
	Route(m *Manager, now time.Duration, size int) PathSet
	// Budget aggregates the per-path budgets into the bonded send budget
	// in bits/s.
	Budget(m *Manager) float64
}

// newScheduler maps a policy to its scheduler.
func newScheduler(p Policy) Scheduler {
	switch p {
	case PolicyFailover:
		return &failoverSched{}
	case PolicyCheapest:
		return &cheapestSched{}
	case PolicySpray:
		return &spraySched{}
	default:
		return duplicateSched{}
	}
}

// upSet returns the live paths.
func upSet(m *Manager) PathSet {
	var s PathSet
	for i := 0; i < NumPaths; i++ {
		if m.paths[i].up {
			s = s.with(i)
		}
	}
	return s
}

// allSet returns every path.
func allSet() PathSet {
	var s PathSet
	for i := 0; i < NumPaths; i++ {
		s = s.with(i)
	}
	return s
}

// duplicateSched sends every packet on every live path (all paths when none
// are live — the copies queue behind the interruptions, which is how the
// monitor sees recovery). Down paths still get the probe duplicates: a
// loss-caused down only clears when fresh deliveries decay the loss EWMA,
// and probes are the only traffic a down path sees.
type duplicateSched struct{}

func (duplicateSched) Tick(*Manager, time.Duration) {}
func (duplicateSched) Route(m *Manager, _ time.Duration, _ int) PathSet {
	set := upSet(m)
	if set == 0 {
		return allSet()
	}
	if m.probeDue() {
		set |= allSet()
	}
	return set
}

// Budget: every copy must fit the weakest live path.
func (duplicateSched) Budget(m *Manager) float64 {
	min, any := 0.0, false
	for i := 0; i < NumPaths; i++ {
		if b := m.pathBudget(i); b > 0 && (!any || b < min) {
			min, any = b, true
		}
	}
	if !any {
		return minPathBudget
	}
	return min
}

// failoverSched keeps the stream on a primary path with the other as a hot
// standby: a health breach on the active path switches over, and the
// stream switches back to the preferred (lowest-index) path only once its
// probation has cleared — the hysteresis that stops flapping.
type failoverSched struct{}

func (failoverSched) Tick(m *Manager, now time.Duration) {
	if !m.paths[m.active].up {
		// Active breached: take the first live path, in index order so the
		// choice is deterministic.
		for i := 0; i < NumPaths; i++ {
			if m.paths[i].up {
				m.switchActive(now, i)
				return
			}
		}
		return // every path down: hold position, packets queue
	}
	// Switch back once a preferred (lower-index) path has cleared its
	// probation; the probationTicks streak is the switch-back damper.
	for i := 0; i < m.active; i++ {
		if m.paths[i].up {
			m.switchActive(now, i)
			return
		}
	}
}

func (failoverSched) Route(m *Manager, _ time.Duration, _ int) PathSet {
	set := PathSet(0).with(m.active)
	if m.probeDue() {
		// Keep the standby's health estimate warm; a down standby is
		// probed too — delivery of those probes is what ends probation
		// after a loss-caused breach.
		set |= allSet()
	}
	return set
}

func (failoverSched) Budget(m *Manager) float64 {
	if b := m.pathBudget(m.active); b > 0 {
		return b
	}
	return minPathBudget
}

// cheapestSched sends on the currently best live path by health score and
// probes the rest at the probe cadence. A switch needs a clear margin so
// near-equal paths do not flap.
type cheapestSched struct{}

// score is the path's cost: delivery RTT plus a steep loss penalty (one
// EWMA loss point ≈ 800 ms of RTT).
func pathScore(m *Manager, i int) float64 {
	p := &m.paths[i]
	rtt := p.rttEwma
	if !p.haveRTT {
		rtt = 100 // unmeasured: assume mediocre, not perfect
	}
	return rtt + 800*p.lossEwma
}

func (cheapestSched) Tick(m *Manager, now time.Duration) {
	best, bestScore := -1, 0.0
	for i := 0; i < NumPaths; i++ {
		if !m.paths[i].up {
			continue
		}
		if s := pathScore(m, i); best < 0 || s < bestScore {
			best, bestScore = i, s
		}
	}
	if best < 0 || best == m.active {
		return
	}
	if !m.paths[m.active].up || bestScore < 0.8*pathScore(m, m.active) {
		m.switchActive(now, best)
	}
}

func (cheapestSched) Route(m *Manager, _ time.Duration, _ int) PathSet {
	set := PathSet(0).with(m.active)
	if m.probeDue() {
		set |= allSet()
	}
	return set
}

func (cheapestSched) Budget(m *Manager) float64 {
	if b := m.pathBudget(m.active); b > 0 {
		return b
	}
	return minPathBudget
}

// spraySched stripes packets across the live paths, weighted by each
// path's budget, with smooth weighted round-robin credits so the
// interleave is even rather than bursty.
type spraySched struct{}

func (spraySched) Tick(*Manager, time.Duration) {}

func (spraySched) Route(m *Manager, _ time.Duration, _ int) PathSet {
	up := upSet(m)
	if up == 0 {
		return allSet() // all down: duplicate into the interruptions
	}
	total := 0.0
	for i := 0; i < NumPaths; i++ {
		if up.Has(i) {
			total += m.pathBudget(i)
		}
	}
	// Accrue each live path's weight share, send on the largest credit
	// (ties break to the lower index), spend one credit there.
	best := -1
	for i := 0; i < NumPaths; i++ {
		p := &m.paths[i]
		if !up.Has(i) {
			p.sprayCredit = 0
			continue
		}
		if total > 0 {
			p.sprayCredit += m.pathBudget(i) / total
		} else {
			p.sprayCredit += 1.0 / float64(up.Count())
		}
		if best < 0 || p.sprayCredit > m.paths[best].sprayCredit {
			best = i
		}
	}
	m.paths[best].sprayCredit--
	set := PathSet(0).with(best)
	if m.probeDue() {
		set |= allSet()
	}
	return set
}

// Budget: striping aggregates capacity, so the bonded budget is the sum of
// the live paths'.
func (spraySched) Budget(m *Manager) float64 {
	sum := 0.0
	for i := 0; i < NumPaths; i++ {
		sum += m.pathBudget(i)
	}
	if sum <= 0 {
		return minPathBudget
	}
	return sum
}
