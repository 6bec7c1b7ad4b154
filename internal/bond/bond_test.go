package bond

import (
	"testing"
	"time"
)

// TestPolicyNames pins the five policies' names: distinct, and the four
// active ones never the name of an unknown value.
func TestPolicyNames(t *testing.T) {
	want := map[Policy]string{PolicyNone: "none", PolicyDuplicate: "duplicate",
		PolicyFailover: "failover", PolicyCheapest: "cheapest", PolicySpray: "spray"}
	seen := map[string]Policy{}
	for _, p := range append(Policies(), PolicyNone) {
		if p.String() != want[p] {
			t.Errorf("Policy(%d).String() = %q, want %q", int(p), p.String(), want[p])
		}
		if q, dup := seen[p.String()]; dup {
			t.Errorf("policies %d and %d share the name %q", int(q), int(p), p.String())
		}
		seen[p.String()] = p
	}
	if bogus := Policy(99).String(); bogus != "none" {
		t.Errorf("an unknown policy is named %q, want none", bogus)
	}
}

// TestWithDefaults: the zero config resolves to the documented defaults
// and explicit values survive.
func TestWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if probeEvery != 16 || c.ReorderDeadline != 60*time.Millisecond || c.ReorderCap != 256 {
		t.Errorf("schedule defaults wrong: probe every %d, %+v", probeEvery, c)
	}
	if healthAlpha != 0.05 || lossDown != 0.12 || lossUp != 0.05 ||
		downAfterTicks != 2 || probationTicks != 10 ||
		rateAlpha != 0.3 || rateHeadroom != 1.25 || minPathBudget != 1.5e6 {
		t.Error("health constants wrong")
	}
	c2 := Config{ReorderDeadline: 5 * time.Millisecond, ReorderCap: 3}.WithDefaults()
	if c2.ReorderDeadline != 5*time.Millisecond || c2.ReorderCap != 3 {
		t.Errorf("explicit values clobbered: %+v", c2)
	}
	if (Config{}).Enabled() || !(Config{Policy: PolicySpray}).Enabled() {
		t.Error("Enabled must key on Policy")
	}
}

// TestPathSet: bitmask basics.
func TestPathSet(t *testing.T) {
	var s PathSet
	if s.Count() != 0 || s.Has(0) {
		t.Error("empty set not empty")
	}
	s = s.with(1)
	if !s.Has(1) || s.Has(0) || s.Count() != 1 {
		t.Errorf("with(1) wrong: %b", s)
	}
	if allSet().Count() != NumPaths {
		t.Errorf("allSet = %b", allSet())
	}
}

// tick advances the manager through n monitor ticks at the standard 50 ms
// cadence, starting after *now.
func tick(m *Manager, now *time.Duration, n int) {
	for i := 0; i < n; i++ {
		*now += 50 * time.Millisecond
		m.Tick(*now)
	}
}

// TestFailoverHysteresis walks the failover scheduler through the full
// breach → switch → probation → switch-back arc and checks every event.
func TestFailoverHysteresis(t *testing.T) {
	m := NewManager(Config{Policy: PolicyFailover})
	var events []Event
	m.OnEvent = func(ev Event) { events = append(events, ev) }
	outage := false
	m.SetOutageProbe(0, func(time.Duration) bool { return outage })

	var now time.Duration
	tick(m, &now, 5)
	if !m.paths[0].up || !m.paths[1].up || m.active != 0 || len(events) != 0 {
		t.Fatalf("healthy steady state wrong: active=%d events=%v", m.active, events)
	}

	// Outage on the primary: one breach tick is not enough (hysteresis) …
	outage = true
	tick(m, &now, 1)
	if !m.paths[0].up || m.active != 0 {
		t.Fatal("path 0 must survive a single breach tick")
	}
	// … the second declares it down and the scheduler fails over.
	tick(m, &now, 1)
	if m.paths[0].up || m.active != 1 || m.Switches != 1 {
		t.Fatalf("expected failover: up0=%v active=%d switches=%d", m.paths[0].up, m.active, m.Switches)
	}
	if len(events) != 2 || events[0].Kind != EventPathDown || events[0].Cause != CauseOutage ||
		events[1].Kind != EventFailover || events[1].From != 0 || events[1].To != 1 {
		t.Fatalf("events wrong: %+v", events)
	}

	// Outage clears: probation must hold for probationTicks before the
	// path is readmitted and the stream switches back.
	outage = false
	tick(m, &now, 9)
	if m.paths[0].up || m.active != 1 {
		t.Fatal("probation must not clear early")
	}
	tick(m, &now, 1)
	if !m.paths[0].up || m.active != 0 || m.Switches != 2 {
		t.Fatalf("expected switch-back: up0=%v active=%d switches=%d", m.paths[0].up, m.active, m.Switches)
	}
	last := events[len(events)-1]
	if last.Kind != EventFailover || last.To != 0 {
		t.Fatalf("missing switch-back event: %+v", events)
	}
	up := events[len(events)-2]
	if up.Kind != EventPathUp || up.Path != 0 || up.DownFor <= 0 {
		t.Fatalf("missing path-up event: %+v", up)
	}
}

// TestLossBreach: a sustained loss EWMA above LossDown takes a path down
// with CauseLoss, and clean deliveries bring it back.
func TestLossBreach(t *testing.T) {
	m := NewManager(Config{Policy: PolicyFailover})
	var events []Event
	m.OnEvent = func(ev Event) { events = append(events, ev) }
	var now time.Duration
	// Hammer path 0 with losses until its EWMA breaches.
	for i := 0; i < 60; i++ {
		m.ObserveLoss(0)
	}
	tick(m, &now, 2)
	if m.paths[0].up || m.active != 1 {
		t.Fatalf("loss breach must fail over: up0=%v active=%d", m.paths[0].up, m.active)
	}
	if events[0].Cause != CauseLoss {
		t.Fatalf("cause = %v, want loss", events[0].Cause)
	}
	// Clean deliveries decay the EWMA below LossUp; probation then clears.
	for i := 0; i < 200; i++ {
		m.ObserveDelivery(0, 40*time.Millisecond, 1200)
	}
	tick(m, &now, 10)
	if !m.paths[0].up || m.active != 0 {
		t.Fatalf("recovery failed: up0=%v active=%d", m.paths[0].up, m.active)
	}
}

// TestRouteDuplicate: every live path carries every packet; with all paths
// down the copies still go somewhere.
func TestRouteDuplicate(t *testing.T) {
	m := NewManager(Config{Policy: PolicyDuplicate})
	if set := m.Route(0, 1200); set != allSet() {
		t.Fatalf("both up: set = %b, want all", set)
	}
	down := false
	m.SetOutageProbe(0, func(time.Duration) bool { return down })
	down = true
	var now time.Duration
	tick(m, &now, 2)
	if set := m.Route(now, 1200); !set.Has(1) || set.Has(0) {
		t.Fatalf("path 0 down: set = %b, want path 1 only", set)
	}
	st := m.Stats(0, now)
	if !st.Up == false && st.DownFor <= 0 {
		t.Fatalf("stats must account the open down interval: %+v", st)
	}
}

// TestRouteFailoverProbes: the standby sees exactly the probe cadence.
func TestRouteFailoverProbes(t *testing.T) {
	m := NewManager(Config{Policy: PolicyFailover})
	m.probeEvery = 8
	onStandby := 0
	for i := 0; i < 64; i++ {
		set := m.Route(0, 1200)
		if !set.Has(0) {
			t.Fatal("active path must carry every packet")
		}
		if set.Has(1) {
			onStandby++
		}
	}
	if onStandby != 8 {
		t.Fatalf("standby carried %d of 64, want 8 (probe every 8th)", onStandby)
	}
	if st := m.Stats(1, 0); st.Sent != 8 {
		t.Fatalf("standby Sent = %d, want 8", st.Sent)
	}
}

// TestRouteSprayWeights: striping follows the delivered-rate weights and
// interleaves smoothly rather than in bursts.
func TestRouteSprayWeights(t *testing.T) {
	m := NewManager(Config{Policy: PolicySpray})
	m.probeEvery = 1 << 30
	var now time.Duration
	// Feed path 0 three times the delivered bytes of path 1 over a few
	// ticks so the rate EWMAs settle near a 3:1 ratio.
	for i := 0; i < 20; i++ {
		for j := 0; j < 30; j++ {
			m.ObserveDelivery(0, 40*time.Millisecond, 1200)
		}
		for j := 0; j < 10; j++ {
			m.ObserveDelivery(1, 40*time.Millisecond, 1200)
		}
		tick(m, &now, 1)
	}
	counts := [NumPaths]int{}
	longestRun, run, last := 0, 0, -1
	for i := 0; i < 400; i++ {
		set := m.Route(now, 1200)
		if set.Count() != 1 {
			t.Fatalf("spray must pick exactly one path, got %b", set)
		}
		for p := 0; p < NumPaths; p++ {
			if set.Has(p) {
				counts[p]++
				if p == last {
					run++
				} else {
					run, last = 1, p
				}
				if run > longestRun {
					longestRun = run
				}
			}
		}
	}
	frac := float64(counts[0]) / 400
	if frac < 0.65 || frac > 0.85 {
		t.Fatalf("path 0 carried %.2f of packets, want ≈0.75 (counts %v)", frac, counts)
	}
	if longestRun > 5 {
		t.Fatalf("striping too bursty: longest same-path run %d", longestRun)
	}
}

// TestRouteCheapest: the active path follows the health score with a
// switch margin.
func TestRouteCheapest(t *testing.T) {
	m := NewManager(Config{Policy: PolicyCheapest})
	var now time.Duration
	// Near-equal paths: no switch off the initial active.
	for i := 0; i < 50; i++ {
		m.ObserveDelivery(0, 42*time.Millisecond, 1200)
		m.ObserveDelivery(1, 40*time.Millisecond, 1200)
	}
	tick(m, &now, 3)
	if m.active != 0 || m.Switches != 0 {
		t.Fatalf("margin must suppress a near-equal switch: active=%d", m.active)
	}
	// Path 1 becomes decisively better.
	for i := 0; i < 200; i++ {
		m.ObserveDelivery(0, 150*time.Millisecond, 1200)
		m.ObserveDelivery(1, 30*time.Millisecond, 1200)
	}
	tick(m, &now, 1)
	if m.active != 1 || m.Switches != 1 {
		t.Fatalf("cheapest must follow the score: active=%d switches=%d", m.active, m.Switches)
	}
}

// TestBudgets: the aggregation rule per policy.
func TestBudgets(t *testing.T) {
	prime := func(p Policy) (*Manager, *time.Duration) {
		m := NewManager(Config{Policy: p})
		now := new(time.Duration)
		// Settle rate EWMAs near 4.8 Mb/s on path 0 and 9.6 Mb/s on path 1
		// (25 and 50 pkts of 1200 B per 50 ms tick).
		for i := 0; i < 40; i++ {
			for j := 0; j < 25; j++ {
				m.ObserveDelivery(0, 40*time.Millisecond, 1200)
			}
			for j := 0; j < 50; j++ {
				m.ObserveDelivery(1, 40*time.Millisecond, 1200)
			}
			tick(m, now, 1)
		}
		return m, now
	}
	approx := func(got, want float64) bool { return got > 0.8*want && got < 1.25*want }

	m, _ := prime(PolicyDuplicate)
	if b := m.Budget(); !approx(b, 1.25*4.8e6) {
		t.Errorf("duplicate budget = %.0f, want ≈ weakest path (6e6)", b)
	}
	m, _ = prime(PolicySpray)
	if b := m.Budget(); !approx(b, 1.25*(4.8e6+9.6e6)) {
		t.Errorf("spray budget = %.0f, want ≈ sum (18e6)", b)
	}
	m, now := prime(PolicyFailover)
	if b := m.Budget(); !approx(b, 1.25*4.8e6) {
		t.Errorf("failover budget = %.0f, want ≈ active path (6e6)", b)
	}
	// Fail the active path over (path 1 keeps carrying traffic): the
	// budget follows to path 1.
	down := true
	m.SetOutageProbe(0, func(time.Duration) bool { return down })
	for i := 0; i < 2; i++ {
		for j := 0; j < 50; j++ {
			m.ObserveDelivery(1, 40*time.Millisecond, 1200)
		}
		tick(m, now, 1)
	}
	if m.active != 1 {
		t.Fatal("failover did not switch")
	}
	if b := m.Budget(); !approx(b, 1.25*9.6e6) {
		t.Errorf("post-failover budget = %.0f, want ≈ path 1 (12e6)", b)
	}
	// All paths down: the floor keeps a restart admissible.
	m2 := NewManager(Config{Policy: PolicyDuplicate})
	m2.SetOutageProbe(0, func(time.Duration) bool { return true })
	m2.SetOutageProbe(1, func(time.Duration) bool { return true })
	var n2 time.Duration
	tick(m2, &n2, 3)
	if b := m2.Budget(); b != minPathBudget {
		t.Errorf("all-down budget = %.0f, want the floor", b)
	}
}
