package link

import (
	"testing"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/flight"
	"rpivideo/internal/metrics"
	"rpivideo/internal/obs"
	"rpivideo/internal/obs/analyze"
	"rpivideo/internal/sim"
)

// cleanProfile returns a deterministic profile without loss or fluctuation.
func cleanProfile() Profile {
	return Profile{
		MeanCapacity: 10e6,
		CapSigma:     0,
		CapTau:       time.Second,
		MinCapacity:  10e6,
		BaseOWD:      20 * time.Millisecond,
		JitterSigma:  0,
		BufferBytes:  1 << 20,
	}
}

type arrival struct {
	meta any
	owd  time.Duration
	at   time.Duration
}

func collect(l *Link) *[]arrival {
	var got []arrival
	l.Deliver = func(meta any, size int, sentAt, at time.Duration) {
		got = append(got, arrival{meta: meta, owd: at - sentAt, at: at})
	}
	return &got
}

func TestDeliveryOrderAndDelay(t *testing.T) {
	s := sim.New(1)
	l := New(s, cleanProfile(), nil, nil, s.Stream("link"))
	got := collect(l)
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Duration(i)*10*time.Millisecond, func() { l.Send(i, 1250) })
	}
	s.Run()
	if len(*got) != 10 {
		t.Fatalf("delivered %d of 10", len(*got))
	}
	for i, a := range *got {
		if a.meta.(int) != i {
			t.Fatalf("delivery order: %v", *got)
		}
		// 1250 bytes at 10 Mbps = 1 ms serialization + 20 ms OWD.
		if a.owd < 20*time.Millisecond || a.owd > 23*time.Millisecond {
			t.Errorf("packet %d OWD = %v, want ≈21 ms", i, a.owd)
		}
	}
}

func TestThroughputLimitedByCapacity(t *testing.T) {
	s := sim.New(1)
	l := New(s, cleanProfile(), nil, nil, s.Stream("link"))
	got := collect(l)
	// Offer 20 Mbps to a 10 Mbps link for 2 s.
	const pkt = 1250
	for at := time.Duration(0); at < 2*time.Second; at += 500 * time.Microsecond {
		at := at
		s.At(at, func() { l.Send(nil, pkt) })
	}
	s.RunUntil(2 * time.Second)
	gotBits := len(*got) * pkt * 8
	rate := float64(gotBits) / 2
	if rate < 9e6 || rate > 10.5e6 {
		t.Errorf("delivered rate = %.2f Mbps, want ≈10", rate/1e6)
	}
}

func TestBufferbloatDelayNotLoss(t *testing.T) {
	// Offering 1.3× capacity for one second must grow delay, not drop
	// packets (deep buffer).
	s := sim.New(1)
	p := cleanProfile() // 1 MB buffer = 800 ms at 10 Mbps
	l := New(s, p, nil, nil, s.Stream("link"))
	got := collect(l)
	for at := time.Duration(0); at < time.Second; at += 769 * time.Microsecond { // ≈13 Mbps
		at := at
		s.At(at, func() { l.Send(nil, 1250) })
	}
	s.Run()
	if m := l.Count(Media); m.Drops() != 0 {
		t.Errorf("drops under mild overload: %v", m.Dropped)
	}
	last := (*got)[len(*got)-1]
	if last.owd < 100*time.Millisecond {
		t.Errorf("tail OWD = %v, want visible bufferbloat", last.owd)
	}
}

func TestBufferOverflow(t *testing.T) {
	s := sim.New(1)
	p := cleanProfile()
	p.BufferBytes = 10_000
	l := New(s, p, nil, nil, s.Stream("link"))
	collect(l)
	drops := 0
	l.OnDrop = func(meta any, size int, sentAt time.Duration, _ Class, r DropReason) {
		if r != DropOverflow {
			t.Errorf("drop reason = %v, want overflow", r)
		}
		drops++
	}
	s.At(0, func() {
		for i := 0; i < 20; i++ {
			l.Send(nil, 1250) // 25 KB burst into a 10 KB buffer
		}
	})
	s.Run()
	if drops == 0 {
		t.Error("no overflow drops for a burst exceeding the buffer")
	}
	if delivered := l.Count(Media).Delivered; delivered+drops != 20 {
		t.Errorf("conservation: delivered %d + dropped %d != 20", delivered, drops)
	}
}

func TestResidualLossRate(t *testing.T) {
	s := sim.New(7)
	p := cleanProfile()
	p.MeanCapacity, p.MinCapacity = 100e6, 100e6
	p.PER = 0.0007
	p.MeanBurstLen = 3
	l := New(s, p, nil, nil, s.Stream("link"))
	collect(l)
	const n = 400_000
	s.At(0, func() {
		for i := 0; i < n; i++ {
			l.Send(nil, 100)
		}
	})
	s.Run()
	per := float64(l.Count(Media).Dropped[DropLoss]) / float64(n)
	if per < 0.0003 || per > 0.0012 {
		t.Errorf("PER = %.5f, want ≈0.0007 (paper: 0.06–0.07 %%)", per)
	}
}

func TestLossesAreBursty(t *testing.T) {
	s := sim.New(3)
	p := cleanProfile()
	p.PER = 0.01
	p.MeanBurstLen = 4
	l := New(s, p, nil, nil, s.Stream("link"))
	collect(l)
	lossIdx := []int{}
	idx := 0
	l.OnDrop = func(any, int, time.Duration, Class, DropReason) { lossIdx = append(lossIdx, idx) }
	s.At(0, func() {
		for i := 0; i < 200_000; i++ {
			idx = i
			l.Send(nil, 100)
		}
	})
	s.Run()
	if len(lossIdx) < 100 {
		t.Fatalf("only %d losses", len(lossIdx))
	}
	consecutive := 0
	for i := 1; i < len(lossIdx); i++ {
		if lossIdx[i] == lossIdx[i-1]+1 {
			consecutive++
		}
	}
	frac := float64(consecutive) / float64(len(lossIdx))
	if frac < 0.5 {
		t.Errorf("only %.0f%% of losses consecutive; the paper observed bursty drops", frac*100)
	}
}

// flightLinkFixture wires a machine-driven link over the standard flight.
// A non-nil tr gets each handover as a core run traces it.
func flightLinkFixture(seed int64, tr *obs.Tracer) (*sim.Simulator, *Link, flight.Profile) {
	s := sim.New(seed)
	rng := s.Stream("cell")
	bss := cell.Deployment(cell.Urban, cell.P1, rng)
	model := cell.NewSignalModel(cell.Urban, bss, cell.DefaultSignalConfigFor(cell.Urban), rng)
	machine := cell.NewMachine(model, cell.DefaultHandoverConfigFor(cell.Urban), true, rng)
	prof := flight.StandardFlight()
	stateAt := func(at time.Duration) flight.State { return prof.At(at) }
	l := New(s, ProfileFor(cell.Urban, cell.P1), machine, stateAt, s.Stream("link"))
	s.Every(0, 40*time.Millisecond, func() {
		if ev := machine.Step(s.Now(), prof.At(s.Now())); ev != nil && tr != nil {
			tr.Emit(obs.Event{T: s.Now(), Kind: obs.KindHandover, Dir: obs.DirUp,
				Seq: int64(ev.From), Aux: int64(ev.To), V: float64(ev.HET) / float64(time.Millisecond)})
		}
	})
	return s, l, prof
}

func TestHandoverCausesLatencySpikes(t *testing.T) {
	// Link and machine write one trace; the analyzer's handover epochs are
	// the Fig. 9 windows.
	tr := obs.New(0)
	s, l, prof := flightLinkFixture(5, tr)
	l.SetTracer(tr, obs.DirUp)
	l.Deliver = func(any, int, time.Duration, time.Duration) {}
	// Steady 25 Mbps stream (the urban static workload): pre-handover
	// degradation must back it up into the buffer.
	s.Every(0, 400*time.Microsecond, func() {
		l.Send(nil, 1250)
	})
	s.RunUntil(prof.Duration())

	a := analyze.Run(obs.RunMeta{Duration: prof.Duration()}, tr.Events())
	if len(a.Epochs) == 0 {
		t.Fatal("no handovers in an urban flight")
	}
	var ratios metrics.Dist
	for _, e := range a.Epochs {
		if e.Kind == "handover" && e.PreOK {
			ratios.Add(e.PreRatio)
		}
	}
	if ratios.N() == 0 {
		t.Fatal("no OWD samples around handovers")
	}
	t.Logf("pre-HO max/min OWD ratio: %v", ratios.Box())
	if ratios.Mean() < 3 {
		t.Errorf("mean pre-HO latency ratio = %.1f, want clear spikes (paper ≈8)", ratios.Mean())
	}
	if ratios.Mean() > 20 {
		t.Errorf("mean pre-HO latency ratio = %.1f, implausibly deep", ratios.Mean())
	}
}

func TestNoDeliveriesDuringHandoverExecution(t *testing.T) {
	tr := obs.New(0)
	s, l, prof := flightLinkFixture(8, tr)
	var arrivals []time.Duration
	l.Deliver = func(meta any, size int, sentAt, at time.Duration) { arrivals = append(arrivals, at) }
	s.Every(0, time.Millisecond, func() { l.Send(nil, 1250) })
	s.RunUntil(prof.Duration())

	// Pick the longest handover in the trace; nothing should *depart* the
	// bottleneck during it, so arrivals inside (onset+BaseOWD, onset+HET)
	// are at most a few stragglers that were already past the queue.
	var onset, het time.Duration
	for _, ev := range tr.Events() {
		if d := time.Duration(ev.V * float64(time.Millisecond)); ev.Kind == obs.KindHandover && d > het {
			onset, het = ev.T, d
		}
	}
	if het < 100*time.Millisecond {
		t.Skip("no long handover in this seed")
	}
	inWindow := 0
	lo := onset + 40*time.Millisecond
	hi := onset + het
	for _, at := range arrivals {
		if at > lo && at < hi {
			inWindow++
		}
	}
	if inWindow > 3 {
		t.Errorf("%d deliveries during a %v handover execution", inWindow, het)
	}
}

func TestAltitudeOutliers(t *testing.T) {
	s := sim.New(11)
	p := cleanProfile()
	p.AltOutlierAbove = 100
	p.AltOutlierRate = 0.5
	high := flight.State{Alt: 120}
	l := New(s, p, nil, func(time.Duration) flight.State { return high }, s.Stream("link"))
	got := collect(l)
	for at := time.Duration(0); at < 30*time.Second; at += time.Millisecond {
		at := at
		s.At(at, func() { l.Send(nil, 125) })
	}
	s.Run()
	outliers := 0
	for _, a := range *got {
		if a.owd > 100*time.Millisecond {
			outliers++
		}
	}
	if outliers == 0 {
		t.Error("no delay outliers at 120 m; Fig. 13 requires them above 100 m")
	}
	// And none at ground level.
	s2 := sim.New(11)
	l2 := New(s2, p, nil, nil, s2.Stream("link"))
	got2 := collect(l2)
	for at := time.Duration(0); at < 30*time.Second; at += time.Millisecond {
		at := at
		s2.At(at, func() { l2.Send(nil, 125) })
	}
	s2.Run()
	for _, a := range *got2 {
		if a.owd > 100*time.Millisecond {
			t.Fatal("delay outlier at ground level")
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []arrival {
		s, l, prof := flightLinkFixture(99, nil)
		got := collect(l)
		s.Every(0, 2*time.Millisecond, func() { l.Send(nil, 1250) })
		s.RunUntil(prof.Duration() / 4)
		return *got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("same-seed runs delivered %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].at != b[i].at || a[i].owd != b[i].owd {
			t.Fatalf("delivery %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestProfileShapes(t *testing.T) {
	up1 := ProfileFor(cell.Urban, cell.P1)
	rp1 := ProfileFor(cell.Rural, cell.P1)
	rp2 := ProfileFor(cell.Rural, cell.P2)
	if up1.MeanCapacity <= 25e6 {
		t.Error("urban P1 must sustain a static 25 Mbps stream")
	}
	if rp1.MeanCapacity >= up1.MeanCapacity {
		t.Error("rural capacity must be below urban")
	}
	if rp2.MeanCapacity <= rp1.MeanCapacity {
		t.Error("rural P2 must offer more capacity than P1 (Fig. 10)")
	}
	if rp1.CapSigma <= up1.CapSigma {
		t.Error("rural capacity must fluctuate more than urban (Fig. 6)")
	}
	if rp1.BaseOWD <= up1.BaseOWD {
		t.Error("rural base latency sits above urban (Fig. 5)")
	}
	fb := FeedbackProfile()
	if fb.MeanCapacity < 50e6 {
		t.Error("feedback downlink must be over-provisioned")
	}
}
