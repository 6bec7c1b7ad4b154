package gcc

import (
	"math/rand"
	"testing"
	"time"
)

func TestTrendlineZeroOnFlatDelay(t *testing.T) {
	tl := newTrendline()
	var out float64
	for i := 0; i < 100; i++ {
		out = tl.update(0, float64(i*5))
	}
	if out != 0 {
		t.Errorf("trend = %v on flat delay", out)
	}
}

func TestTrendlinePositiveOnBuildup(t *testing.T) {
	tl := newTrendline()
	var out float64
	for i := 0; i < 100; i++ {
		out = tl.update(0.5, float64(i*5)) // +0.5 ms per 5 ms group
	}
	if out <= 0 {
		t.Errorf("trend = %v under queue buildup, want positive", out)
	}
	// Slope ≈ 0.1 ms/ms × gain 4 ≈ 0.4.
	if out < 0.2 || out > 0.6 {
		t.Errorf("trend = %v, want ≈0.4", out)
	}
}

func TestTrendlineNegativeOnDrain(t *testing.T) {
	tl := newTrendline()
	for i := 0; i < 50; i++ {
		tl.update(1, float64(i*5))
	}
	var out float64
	for i := 50; i < 100; i++ {
		out = tl.update(-1, float64(i*5))
	}
	if out >= 0 {
		t.Errorf("trend = %v during queue drain, want negative", out)
	}
}

func TestTrendlineNeedsFullWindow(t *testing.T) {
	tl := newTrendline()
	for i := 0; i < 19; i++ {
		if got := tl.update(5, float64(i*5)); got != 0 {
			t.Fatalf("trend emitted %v before the window filled", got)
		}
	}
}

func TestTrendlineNoiseRobust(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tl := newTrendline()
	worst := 0.0
	for i := 0; i < 1000; i++ {
		v := tl.update(rng.NormFloat64()*2, float64(i*5))
		if v > worst {
			worst = v
		}
	}
	// The accumulated delay is a random walk under zero-mean noise, so
	// transient slopes occur; the detector's persistence requirement and
	// adaptive threshold absorb them. The raw trend must stay moderate.
	if worst > 2.0 {
		t.Errorf("worst trend %v under zero-mean noise", worst)
	}
}

func TestGCCTrendlineVariantWorks(t *testing.T) {
	ctrl := New(Config{UseTrendline: true})
	rng := rand.New(rand.NewSource(2))
	owd := func(time.Duration) time.Duration { return 50 * time.Millisecond }
	ackStream(ctrl, 0, 30, owd, 0, rng)
	if got := ctrl.TargetBitrate(0); got < 20e6 {
		t.Errorf("trendline GCC reached only %.1f Mbps on a clean link", got/1e6)
	}
}

func TestGCCTrendlineBacksOff(t *testing.T) {
	ctrl := startAt(Config{UseTrendline: true}, 20e6)
	rng := rand.New(rand.NewSource(3))
	owd := func(at time.Duration) time.Duration {
		return 50*time.Millisecond + time.Duration(at.Seconds()*40)*time.Millisecond
	}
	sawOveruse := false
	at := time.Duration(0)
	for i := 0; i < 10; i++ {
		at = ackStream(ctrl, at, 0.5, owd, 0, rng)
		if ctrl.lastSignal == SignalOveruse {
			sawOveruse = true
		}
	}
	if got := ctrl.TargetBitrate(0); got > 18e6 {
		t.Errorf("trendline GCC did not back off: %.1f Mbps", got/1e6)
	}
	if !sawOveruse {
		t.Error("trendline variant never signalled over-use under buildup")
	}
}

// TestTrendlineSteadyStateAllocations: once its window is full, the
// estimator allocates nothing per sample. Counted over a whole stretch of
// calls, so a backing array regrown every few dozen samples counts too.
func TestTrendlineSteadyStateAllocations(t *testing.T) {
	tl := newTrendline()
	rng := rand.New(rand.NewSource(4))
	ms := 0.0
	step := func() {
		ms += 5
		tl.update(rng.NormFloat64(), ms)
	}
	for i := 0; i < 100; i++ {
		step()
	}
	n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10_000; i++ {
			step()
		}
	})
	if n != 0 {
		t.Errorf("trendline.update allocates %.0f times in 10 000 samples, want 0", n)
	}
}

// newTrendline is a trendline as a controller's Reset leaves it.
func newTrendline() *trendline {
	t := new(trendline)
	t.reset()
	return t
}
