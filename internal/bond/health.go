package bond

import "time"

// pathState is the monitor's view of one bonded radio chain.
type pathState struct {
	up bool
	// rttEwma is the delivery-RTT EWMA in milliseconds (send → delivered,
	// TWCC-style), valid once haveRTT.
	rttEwma float64
	haveRTT bool
	// lossEwma is the per-packet delivery-loss EWMA: each delivery pushes
	// it toward 0, each loss toward 1.
	lossEwma float64
	// rateEwma is the delivered-rate EWMA in bits/s, sampled per tick.
	rateEwma float64
	// bytesAcc accumulates delivered bytes since the last tick.
	bytesAcc int
	// breach counts consecutive unhealthy ticks while up; healthy counts
	// consecutive clean ticks while down (the probation streak).
	breach, healthy int
	downSince       time.Duration
	// sprayCredit is the smooth-weighted-striping accumulator (spray only).
	sprayCredit float64
	// Accounting, exported through Stats.
	sent, delivered, lost int64
	downFor               time.Duration
}

// PathStats is one path's accounting snapshot.
type PathStats struct {
	// Sent and Delivered count media packets routed to and delivered over
	// the path (probe duplicates included).
	Sent, Delivered int64
	// Lost counts media packets the path's links dropped.
	Lost int64
	// DownFor is the total time the monitor held the path down.
	DownFor time.Duration
	// Up is the path's health state at snapshot time.
	Up bool
}

// Manager is the bonding brain on the sender: it owns the per-path health
// monitor and the scheduling policy, and the core harness consults it for
// every media packet. It draws no randomness and keeps no map state, so
// bonded runs stay deterministic.
type Manager struct {
	cfg   Config
	sched Scheduler
	// probeEvery is the probe cadence (the constant probeEvery; a test may
	// change it).
	probeEvery int
	paths      [NumPaths]pathState
	// outage probes report whether each path's radio chain is currently in
	// a service interruption (handover execution, RLF re-establishment or
	// a scripted window). Installed by the harness.
	outage [NumPaths]func(now time.Duration) bool
	// active is the path the failover/cheapest schedulers currently send
	// on; duplicate and spray ignore it.
	active int
	// pktCount numbers the media packets routed, driving the probe cadence.
	pktCount int64
	// Switches counts active-path changes (failover/cheapest).
	Switches int
	// OnEvent, when set, receives every path-down/path-up/failover
	// decision as it is made.
	OnEvent func(Event)

	lastTick time.Duration
	haveTick bool
}

// NewManager builds a Manager for cfg (zero fields resolved to defaults).
// Paths start up, path 0 active.
func NewManager(cfg Config) *Manager {
	m := &Manager{cfg: cfg.WithDefaults(), probeEvery: probeEvery}
	m.sched = newScheduler(m.cfg.Policy)
	for i := range m.paths {
		m.paths[i].up = true
	}
	return m
}

// Policy returns the active scheduling policy.
func (m *Manager) Policy() Policy { return m.cfg.Policy }

// Config returns the resolved configuration.
func (m *Manager) Config() Config { return m.cfg }

// SetOutageProbe installs path's service-interruption probe.
func (m *Manager) SetOutageProbe(path int, probe func(now time.Duration) bool) {
	m.outage[path] = probe
}

// Stats snapshots path's accounting. now closes the open down interval so
// a path still down at run end is fully accounted.
func (m *Manager) Stats(path int, now time.Duration) PathStats {
	p := &m.paths[path]
	s := PathStats{Sent: p.sent, Delivered: p.delivered, Lost: p.lost, DownFor: p.downFor, Up: p.up}
	if !p.up {
		s.DownFor += now - p.downSince
	}
	return s
}

// ObserveDelivery feeds one delivered media packet on path: rtt is the
// send-to-delivery delay, size the wire size in bytes.
func (m *Manager) ObserveDelivery(path int, rtt time.Duration, size int) {
	p := &m.paths[path]
	ms := float64(rtt) / float64(time.Millisecond)
	if !p.haveRTT {
		p.rttEwma, p.haveRTT = ms, true
	} else {
		p.rttEwma += healthAlpha * (ms - p.rttEwma)
	}
	p.lossEwma += healthAlpha * (0 - p.lossEwma)
	p.bytesAcc += size
	p.delivered++
}

// ObserveLoss feeds one media packet dropped by path's links.
func (m *Manager) ObserveLoss(path int) {
	p := &m.paths[path]
	p.lossEwma += healthAlpha * (1 - p.lossEwma)
	p.lost++
}

// observeSent records a routed copy (called by Route).
func (m *Manager) observeSent(set PathSet) {
	for i := 0; i < NumPaths; i++ {
		if set.Has(i) {
			m.paths[i].sent++
		}
	}
}

// Tick advances the health state machine: it folds the tick's delivered
// bytes into the rate EWMA, evaluates each path against the outage probe
// and loss threshold under the up/down hysteresis, and lets the scheduler
// react to the resulting transitions. The harness calls it on a fixed
// cadence (50 ms).
func (m *Manager) Tick(now time.Duration) {
	dt := now - m.lastTick
	for i := range m.paths {
		p := &m.paths[i]
		if m.haveTick && dt > 0 {
			inst := float64(p.bytesAcc*8) / dt.Seconds()
			p.rateEwma += rateAlpha * (inst - p.rateEwma)
		}
		p.bytesAcc = 0
		inOutage := m.outage[i] != nil && m.outage[i](now)
		unhealthy := inOutage || p.lossEwma > lossDown
		if p.up {
			if unhealthy {
				p.breach++
			} else {
				p.breach = 0
			}
			if p.breach >= downAfterTicks {
				p.up, p.breach, p.healthy = false, 0, 0
				p.downSince = now
				cause := CauseLoss
				if inOutage {
					cause = CauseOutage
				}
				m.emit(Event{At: now, Kind: EventPathDown, Path: i, Cause: cause})
			}
		} else {
			if !inOutage && p.lossEwma < lossUp {
				p.healthy++
			} else {
				p.healthy = 0
			}
			if p.healthy >= probationTicks {
				p.up, p.breach, p.healthy = true, 0, 0
				p.downFor += now - p.downSince
				m.emit(Event{At: now, Kind: EventPathUp, Path: i, DownFor: now - p.downSince})
			}
		}
	}
	m.lastTick, m.haveTick = now, true
	m.sched.Tick(m, now)
}

// Route picks the path set carrying the next media packet of size bytes.
// It never returns the empty set: with every path down the scheduler still
// nominates one (packets queue behind the interruption, which is how the
// monitor later observes recovery).
func (m *Manager) Route(now time.Duration, size int) PathSet {
	m.pktCount++
	set := m.sched.Route(m, now, size)
	if set == 0 {
		set = set.with(m.active)
	}
	m.observeSent(set)
	return set
}

// Budget aggregates the per-path send budgets under the active policy into
// the bonded rate the congestion controller's target is capped to, in
// bits/s: duplicate takes the weakest live path (every copy must fit),
// failover and cheapest the active path, spray the sum of live paths.
func (m *Manager) Budget() float64 { return m.sched.Budget(m) }

// pathBudget is one path's send budget: the delivered-rate EWMA with
// headroom, floored so an idle path still admits a restart, and zero while
// the path is down.
func (m *Manager) pathBudget(i int) float64 {
	p := &m.paths[i]
	if !p.up {
		return 0
	}
	b := p.rateEwma * rateHeadroom
	if b < minPathBudget {
		b = minPathBudget
	}
	return b
}

// switchActive moves the failover/cheapest active path with an event.
func (m *Manager) switchActive(now time.Duration, to int) {
	if to == m.active {
		return
	}
	m.emit(Event{At: now, Kind: EventFailover, From: m.active, To: to})
	m.active = to
	m.Switches++
}

func (m *Manager) emit(ev Event) {
	if m.OnEvent != nil {
		m.OnEvent(ev)
	}
}

// probeDue reports whether the current packet is a probe slot: every
// probeEvery-th packet is duplicated onto the paths the scheduler is not
// using so their health estimates stay warm.
func (m *Manager) probeDue() bool {
	return m.pktCount%int64(m.probeEvery) == 0
}
