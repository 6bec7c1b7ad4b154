package gcc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"rpivideo/internal/cc"
)

func TestKalmanConvergesToConstantGradient(t *testing.T) {
	k := newKalman()
	for i := 0; i < 500; i++ {
		k.update(2.0) // constant 2 ms/group gradient
	}
	if math.Abs(k.m-2.0) > 0.2 {
		t.Errorf("gradient estimate = %v, want ≈2.0", k.m)
	}
}

func TestKalmanTracksZeroUnderNoise(t *testing.T) {
	k := newKalman()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		k.update(rng.NormFloat64() * 3)
	}
	if math.Abs(k.m) > 1.0 {
		t.Errorf("gradient under zero-mean noise = %v, want ≈0", k.m)
	}
}

func TestKalmanRespondsToStep(t *testing.T) {
	k := newKalman()
	for i := 0; i < 200; i++ {
		k.update(0)
	}
	for i := 0; i < 50; i++ {
		k.update(5)
	}
	if k.m < 1.0 {
		t.Errorf("gradient after step = %v, want clearly positive", k.m)
	}
}

func TestDetectorSignalsOveruse(t *testing.T) {
	d := newDetector()
	sig := SignalNormal
	// Sustained gradient far above the initial 12.5 ms threshold.
	for i := 0; i < 20; i++ {
		sig = d.update(25, float64(i*50))
	}
	if sig != SignalOveruse {
		t.Errorf("signal = %v, want overuse", sig)
	}
}

func TestDetectorSignalsUnderuse(t *testing.T) {
	d := newDetector()
	sig := d.update(-30, 0)
	if sig != SignalUnderuse {
		t.Errorf("signal = %v, want underuse", sig)
	}
}

func TestDetectorNormalInBand(t *testing.T) {
	d := newDetector()
	for i := 0; i < 50; i++ {
		if sig := d.update(1.0, float64(i*50)); sig != SignalNormal {
			t.Fatalf("signal = %v for in-band gradient", sig)
		}
	}
}

func TestDetectorThresholdAdapts(t *testing.T) {
	d := newDetector()
	g0 := d.gamma
	// Gradient persistently just above threshold pushes the threshold up.
	for i := 0; i < 200; i++ {
		d.update(d.gamma+2, float64(i*50))
	}
	if d.gamma <= g0 {
		t.Errorf("threshold did not adapt upward: %v → %v", g0, d.gamma)
	}
	if d.gamma > gammaMax {
		t.Errorf("threshold %v above clamp", d.gamma)
	}
}

func TestDetectorOveruseRequiresPersistence(t *testing.T) {
	d := newDetector()
	// A single instantaneous spike (no accumulated over-use time) must not
	// trigger.
	if sig := d.update(100, 0); sig == SignalOveruse {
		t.Error("single spike triggered overuse")
	}
}

func TestAIMDDecreaseOnOveruse(t *testing.T) {
	a := newAIMD(10e6, 2e6, 25e6)
	got := a.update(SignalOveruse, 8e6, time.Second)
	want := beta * 8e6
	if math.Abs(got-want) > 1 {
		t.Errorf("rate after overuse = %v, want %v", got, want)
	}
	if a.state != stateHold {
		t.Errorf("state after decrease = %v, want hold", a.state)
	}
}

func TestAIMDHoldOnUnderuse(t *testing.T) {
	a := newAIMD(10e6, 2e6, 25e6)
	got := a.update(SignalUnderuse, 12e6, time.Second)
	if got != 10e6 {
		t.Errorf("rate after underuse = %v, want unchanged", got)
	}
}

func TestAIMDIncreaseOnNormal(t *testing.T) {
	a := newAIMD(5e6, 2e6, 25e6)
	rate := a.rate
	now := time.Second
	for i := 0; i < 10; i++ {
		now += 100 * time.Millisecond
		rate = a.update(SignalNormal, 20e6, now)
	}
	if rate <= 5e6 {
		t.Errorf("rate did not increase: %v", rate)
	}
}

func TestAIMDCappedByReceiveRate(t *testing.T) {
	a := newAIMD(20e6, 2e6, 25e6)
	now := time.Second
	var rate float64
	for i := 0; i < 50; i++ {
		now += 100 * time.Millisecond
		rate = a.update(SignalNormal, 4e6, now)
	}
	if rate > 1.5*4e6+1 {
		t.Errorf("rate %v exceeds 1.5× receive rate", rate)
	}
}

func TestAIMDClamps(t *testing.T) {
	a := newAIMD(3e6, 2e6, 25e6)
	// Repeated overuse with tiny receive rate: clamp at min.
	for i := 0; i < 20; i++ {
		a.update(SignalOveruse, 0.1e6, time.Duration(i)*100*time.Millisecond)
		a.update(SignalNormal, 0.1e6, time.Duration(i)*100*time.Millisecond)
	}
	if a.rate < 2e6 {
		t.Errorf("rate %v below min clamp", a.rate)
	}
}

func TestLossControllerRules(t *testing.T) {
	l := newLossController(10e6, 2e6, 25e6)
	// Heavy loss decreases.
	r1 := l.update(0.2)
	if want := 10e6 * 0.9; math.Abs(r1-want) > 1 {
		t.Errorf("rate after 20%% loss = %v, want %v", r1, want)
	}
	// Moderate loss holds.
	r2 := l.update(0.05)
	if r2 != r1 {
		t.Errorf("rate after 5%% loss = %v, want hold at %v", r2, r1)
	}
	// Negligible loss increases.
	r3 := l.update(0.01)
	if want := r2 * 1.05; math.Abs(r3-want) > 1 {
		t.Errorf("rate after 1%% loss = %v, want %v", r3, want)
	}
}

// ackStream synthesizes feedback for a stream that paces 1200-byte packets
// at the controller's own target bitrate, with a given one-way delay
// function and loss probability — a closed loop without a real link.
func ackStream(ctrl *Controller, start time.Duration, seconds float64, owd func(t time.Duration) time.Duration, lossP float64, rng *rand.Rand) time.Duration {
	const fbEvery = 50 * time.Millisecond
	var batch []cc.Ack
	next := start
	lastFb := start
	end := start + time.Duration(seconds*float64(time.Second))
	for next < end {
		a := cc.Ack{
			Size:     1200,
			SendTime: next,
			Received: rng.Float64() >= lossP,
		}
		if a.Received {
			a.ArrivalTime = next + owd(next)
		}
		batch = append(batch, a)
		next += time.Duration(float64(1200*8) / ctrl.TargetBitrate(next) * float64(time.Second))
		if next-lastFb >= fbEvery {
			ctrl.OnFeedback(next+owd(next), batch)
			batch = nil
			lastFb = next
		}
	}
	return next
}

func TestGCCRampsUpOnCleanLink(t *testing.T) {
	ctrl := New(Config{})
	rng := rand.New(rand.NewSource(1))
	owd := func(t time.Duration) time.Duration {
		return 50*time.Millisecond + time.Duration(rng.Intn(2))*time.Millisecond
	}
	ackStream(ctrl, 0, 30, owd, 0, rng)
	if got := ctrl.TargetBitrate(0); got < 20e6 {
		t.Errorf("target after 30 s on a clean link = %.1f Mbps, want ≥ 20", got/1e6)
	}
}

func TestGCCBacksOffOnQueueBuildup(t *testing.T) {
	ctrl := startAt(Config{}, 20e6)
	rng := rand.New(rand.NewSource(2))
	// Steadily growing one-way delay: a filling bottleneck queue.
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
		t.Errorf("target under queue buildup = %.1f Mbps, want a clear backoff", got/1e6)
	}
	// The adaptive threshold eventually accommodates a persistent drift, so
	// over-use need not be the final signal — but it must have fired.
	if !sawOveruse {
		t.Error("over-use was never signalled during queue buildup")
	}
}

func TestGCCReducesUnderHeavyLoss(t *testing.T) {
	ctrl := startAt(Config{}, 20e6)
	rng := rand.New(rand.NewSource(3))
	owd := func(time.Duration) time.Duration { return 50 * time.Millisecond }
	ackStream(ctrl, 0, 5, owd, 0.25, rng)
	if got := ctrl.TargetBitrate(0); got > 10e6 {
		t.Errorf("target under 25%% loss = %.1f Mbps, want strong reduction", got/1e6)
	}
}

func TestGCCRampUpTimeMatchesPaper(t *testing.T) {
	// The paper reports ≈12 s for GCC to reach 25 Mbps in the urban cell.
	ctrl := New(Config{})
	owd := func(time.Duration) time.Duration { return 50 * time.Millisecond }

	const fbEvery = 50 * time.Millisecond
	var batch []cc.Ack
	next, lastFb := time.Duration(0), time.Duration(0)
	reached := time.Duration(0)
	for next < 60*time.Second {
		batch = append(batch, cc.Ack{Size: 1200, SendTime: next, Received: true, ArrivalTime: next + owd(next)})
		next += time.Duration(float64(1200*8) / ctrl.TargetBitrate(next) * float64(time.Second))
		if next-lastFb >= fbEvery {
			ctrl.OnFeedback(next+owd(next), batch)
			batch = nil
			lastFb = next
			if reached == 0 && ctrl.TargetBitrate(0) >= 24.9e6 {
				reached = next
			}
		}
	}
	if reached == 0 {
		t.Fatal("never reached 25 Mbps")
	}
	if reached < 5*time.Second || reached > 25*time.Second {
		t.Errorf("ramp-up to 25 Mbps took %v, want within [5s, 25s] (paper ≈12 s)", reached)
	}
	t.Logf("GCC ramp-up: %v", reached)
}

func TestGCCInterface(t *testing.T) {
	ctrl := New(Config{})
	if !ctrl.CanSend(0, 1500) {
		t.Error("GCC must always allow sending")
	}
	if ctrl.PacingRate(0) <= ctrl.TargetBitrate(0) {
		t.Error("pacing rate should exceed the target")
	}
	ctrl.OnPacketSent(cc.SentPacket{}) // no-op, must not panic
	ctrl.OnFeedback(time.Second, nil)  // empty feedback, must not panic
}

func TestGCCDefaults(t *testing.T) {
	if cc.MinRate != 2e6 || cc.MaxRate != 25e6 || New(Config{}).TargetBitrate(0) != 2e6 {
		t.Errorf("rate range [%v, %v], start %v", cc.MinRate, cc.MaxRate, New(Config{}).TargetBitrate(0))
	}
	if burstInterval != 5*time.Millisecond || pacingFactor != 1.15 {
		t.Errorf("burst interval %v, pacing factor %v", burstInterval, pacingFactor)
	}
}

// startAt returns a controller built from cfg whose estimate starts at rate
// instead of the encoder floor.
func startAt(cfg Config, rate float64) *Controller {
	c := New(cfg)
	c.aimd.rate, c.target = rate, rate
	return c
}

// Property: target bitrate always stays within [cc.MinRate, cc.MaxRate] and is
// never NaN, for arbitrary feedback.
func TestPropertyTargetBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ctrl := New(Config{})
		now := time.Duration(0)
		for round := 0; round < 50; round++ {
			now += time.Duration(rng.Intn(100)+1) * time.Millisecond
			var acks []cc.Ack
			n := rng.Intn(40) + 1
			for i := 0; i < n; i++ {
				a := cc.Ack{
					Size:     rng.Intn(1400) + 100,
					SendTime: now - time.Duration(rng.Intn(200))*time.Millisecond,
					Received: rng.Float64() < 0.8,
				}
				if a.Received {
					a.ArrivalTime = a.SendTime + time.Duration(rng.Intn(500))*time.Millisecond
				}
				acks = append(acks, a)
			}
			ctrl.OnFeedback(now, acks)
			tr := ctrl.TargetBitrate(now)
			if math.IsNaN(tr) || tr < 2e6-1 || tr > 25e6+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
