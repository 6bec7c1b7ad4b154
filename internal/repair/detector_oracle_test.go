package repair

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"rpivideo/internal/metrics"
	"rpivideo/internal/obs"
)

// mapLoss and mapDetector are the loss detector as it stood before the
// direct-mapped table: one heap record per missing sequence number, found
// through a map keyed by the 16-bit sequence and kept in NACK order in a
// slice of pointers.
type mapLoss struct {
	seq            uint16
	missedAt       time.Duration
	arrivalsAtMiss int
	retries        int
	nextNackAt     time.Duration
	lastNackAt     time.Duration
	done           bool
}

type mapDetector struct {
	maxPending int

	started     bool
	highest     uint16
	arrivals    int
	lastArrival time.Duration

	pending []*mapLoss
	index   map[uint16]*mapLoss

	srtt    time.Duration
	haveRTT bool

	trace   *obs.Tracer
	rttHist *metrics.Sketch

	Repaired  int
	Late      int
	Abandoned int
}

func newMapDetector() *mapDetector {
	return &mapDetector{maxPending: maxPending, index: make(map[uint16]*mapLoss), srtt: initialRTT}
}

func (d *mapDetector) OnPacket(seq uint16, at time.Duration) {
	d.arrivals++
	silence := at - d.lastArrival
	d.lastArrival = at
	if !d.started {
		d.started = true
		d.highest = seq
		return
	}
	delta := seq - d.highest
	switch {
	case delta == 0:
	case delta < 0x8000:
		first, n := d.highest+1, int(delta)-1
		dead := max(0, n-d.maxPending)
		if n > 0 && silence > outageGuard {
			dead = n
		}
		if dead > 0 {
			d.Abandoned += dead
			if d.trace != nil {
				d.trace.Emit(obs.Event{T: at, Kind: obs.KindRepairAbandoned,
					Seq: int64(first), Aux: int64(dead)})
			}
		}
		for s := first + uint16(dead); s != seq; s++ {
			d.add(s, at)
		}
		d.highest = seq
	default:
		if e := d.index[seq]; e != nil {
			d.heal(e, at, false)
		}
	}
}

func (d *mapDetector) OnRepair(seq uint16, at time.Duration) bool {
	e := d.index[seq]
	if e == nil {
		return false
	}
	if e.retries > 0 {
		d.sampleRTT(at - e.lastNackAt)
	}
	d.heal(e, at, true)
	return true
}

func (d *mapDetector) AppendTick(out []uint16, now time.Duration) []uint16 {
	keep := d.pending[:0]
	for _, e := range d.pending {
		if e.done {
			continue
		}
		if d.arrivals-e.arrivalsAtMiss < reorderTolerance || now < e.nextNackAt {
			keep = append(keep, e)
			continue
		}
		if e.retries >= maxRetries {
			d.abandon(e, now)
			continue
		}
		e.retries++
		e.lastNackAt = now
		e.nextNackAt = now + d.rto(e.retries)
		out = append(out, e.seq)
		keep = append(keep, e)
	}
	for i := len(keep); i < len(d.pending); i++ {
		d.pending[i] = nil
	}
	d.pending = keep
	return out
}

func (d *mapDetector) add(seq uint16, at time.Duration) {
	if _, ok := d.index[seq]; ok {
		return
	}
	for len(d.index) >= d.maxPending && len(d.pending) > 0 {
		if e := d.pending[0]; !e.done {
			d.abandon(e, at)
		}
		d.pending[0] = nil
		d.pending = d.pending[1:]
	}
	e := &mapLoss{
		seq:            seq,
		missedAt:       at,
		arrivalsAtMiss: d.arrivals - 1,
		nextNackAt:     at + nackDelay,
	}
	d.pending = append(d.pending, e)
	d.index[seq] = e
}

func (d *mapDetector) rto(k int) time.Duration {
	base := time.Duration(float64(d.srtt) * retryRTTFactor)
	if base < minRTO {
		base = minRTO
	}
	return base << (k - 1)
}

func (d *mapDetector) sampleRTT(s time.Duration) {
	if s < 0 {
		return
	}
	if !d.haveRTT {
		d.srtt = s
		d.haveRTT = true
		return
	}
	d.srtt += (s - d.srtt) / 8
}

func (d *mapDetector) heal(e *mapLoss, at time.Duration, rtx bool) {
	e.done = true
	delete(d.index, e.seq)
	aux := int64(0)
	if rtx {
		aux = 1
		d.Repaired++
		if d.rttHist != nil {
			d.rttHist.Add(float64(at-e.missedAt) / float64(time.Millisecond))
		}
	} else {
		d.Late++
	}
	if d.trace != nil {
		d.trace.Emit(obs.Event{T: at, Kind: obs.KindRepairOK, Seq: int64(e.seq),
			Aux: aux, V: float64(at-e.missedAt) / float64(time.Millisecond)})
	}
}

func (d *mapDetector) abandon(e *mapLoss, at time.Duration) {
	e.done = true
	delete(d.index, e.seq)
	d.Abandoned++
	if d.trace != nil {
		d.trace.Emit(obs.Event{T: at, Kind: obs.KindRepairAbandoned,
			Seq: int64(e.seq), Aux: int64(e.retries)})
	}
}

// TestDetectorMatchesMapOracle drives the table detector and the map one it
// replaced with the same random arrivals — gaps from one packet to past the
// pending bound, reordered late originals, duplicates, RTX heals of NACKed
// and of random numbers, NACK ticks, outage silences beyond the outage
// guard — on a stream that crosses the 16-bit wrap many times, at the
// default pending bound and at lowered ones. Now and then the stream laps
// the whole sequence space between two ticks, so that numbers healed since
// the last tick are lost again while their old places in NACK order are
// still there. After every operation the counters, the pending count and
// the RTT estimate must agree, every tick must NACK the same list, and the
// trace events and NACK RTT samples of each stretch of operations must be
// identical.
func TestDetectorMatchesMapOracle(t *testing.T) {
	ops := 300_000
	if testing.Short() {
		ops = 50_000 // still a few dozen laps at each bound
	}
	for _, bound := range []int{maxPending, 64, 3} {
		t.Run(fmt.Sprintf("maxPending=%d", bound), func(t *testing.T) {
			got, ref := NewDetector(DefaultConfig()), newMapDetector()
			got.maxPending, ref.maxPending = bound, bound
			var gotHist, refHist metrics.Sketch
			got.SetNackRTTHist(&gotHist)
			ref.rttHist = &refHist
			rng := rand.New(rand.NewSource(int64(bound)))
			seq := uint16(65536 - 500) // the first wrap comes early
			var now time.Duration
			var missing [256]uint16 // recently skipped numbers: late originals and repairs
			var nacked []uint16     // the last tick's NACKs, answered by RTX
			var healed []uint16     // the numbers healed since the last tick
			var gotOut, refOut []uint16
			nmiss, ticks, nacks, wraps, laps := 0, 0, 0, 0, 0
			for op := 0; op < ops; op++ {
				if op%4096 == 0 {
					gt, rt := obs.New(0), obs.New(0)
					if op > 0 {
						compareEvents(t, op, got.trace, ref.trace)
					}
					got.SetTracer(gt)
					ref.trace = rt
				}
				switch r := rng.Intn(100); {
				case r < 55: // the next in-stream arrival, often past a gap
					step := uint16(1)
					switch j := rng.Intn(10_000); {
					case j < 1500:
						step += uint16(rng.Intn(20))
					case j < 1520: // past a lowered bound
						step += uint16(rng.Intn(3 * min(bound, 1000)))
					case j < 1522: // past any bound, across half the space
						step += uint16(rng.Intn(0x7fff))
					case j < 1560:
						step = 0 // a duplicate of the newest
					}
					for s := seq + 1; s != seq+step && int(s-seq) <= len(missing); s++ {
						missing[nmiss%len(missing)] = s
						nmiss++
					}
					if seq+step < seq {
						wraps++
					}
					seq += step
					got.OnPacket(seq, now)
					ref.OnPacket(seq, now)
				case r == 55 && rng.Intn(20) == 0:
					// A lap of the whole sequence space between two ticks,
					// in order, the numbers healed since the last tick lost
					// again: their new records open while the old ones'
					// places in NACK order are still there.
					for lap := 1<<16 + rng.Intn(64); lap > 0; lap-- {
						if seq++; !slices.Contains(healed, seq) {
							got.OnPacket(seq, now)
							ref.OnPacket(seq, now)
						}
					}
					wraps++
					laps++
				case r < 62: // a late original, or any older number
					s := missing[rng.Intn(len(missing))]
					if rng.Intn(5) == 0 {
						s = seq - uint16(rng.Intn(0x8000))
					}
					late := ref.Late
					got.OnPacket(s, now)
					ref.OnPacket(s, now)
					if ref.Late > late {
						healed = append(healed, s)
					}
				case r < 72: // a retransmission: mostly for a NACKed number
					s := missing[rng.Intn(len(missing))]
					if len(nacked) > 0 && rng.Intn(4) != 0 {
						s = nacked[rng.Intn(len(nacked))]
					}
					g, w := got.OnRepair(s, now), ref.OnRepair(s, now)
					if g != w {
						t.Fatalf("op %d: OnRepair(%d) at %v = %v, map reference %v", op, s, now, g, w)
					}
					if w {
						healed = append(healed, s)
					}
				case r < 85: // the NACK scheduler
					gotOut, refOut = got.AppendTick(gotOut[:0], now), ref.AppendTick(refOut[:0], now)
					if !slices.Equal(gotOut, refOut) {
						t.Fatalf("op %d: tick at %v NACKs %v, map reference %v", op, now, gotOut, refOut)
					}
					nacked = append(nacked[:0], gotOut...)
					healed = healed[:0]
					ticks++
					nacks += len(gotOut)
				default: // time passes: a packet gap, rarely an outage
					now += time.Duration(rng.Intn(20_000)) * time.Microsecond
					if rng.Intn(200) == 0 {
						now += time.Duration(rng.Int63n(int64(3 * outageGuard)))
					}
				}
				if got.slots.Len() != len(ref.index) || got.srtt != ref.srtt || gotHist.N() != ref.Repaired ||
					got.Late != ref.Late || got.Abandoned != ref.Abandoned {
					t.Fatalf("op %d: pending/rtt/repaired/late/abandoned = %d/%v/%d/%d/%d, map reference %d/%v/%d/%d/%d",
						op, got.slots.Len(), got.srtt, gotHist.N(), got.Late, got.Abandoned,
						len(ref.index), ref.srtt, ref.Repaired, ref.Late, ref.Abandoned)
				}
			}
			compareEvents(t, -1, got.trace, ref.trace)
			if gotHist.N() != refHist.N() || gotHist.Sum() != refHist.Sum() {
				t.Errorf("NACK RTT samples: %d summing to %v, map reference %d summing to %v",
					gotHist.N(), gotHist.Sum(), refHist.N(), refHist.Sum())
			}
			if ref.Repaired == 0 || got.Late == 0 || got.Abandoned == 0 || nacks == 0 || wraps < 3 || laps == 0 {
				t.Errorf("stream too tame: %d repaired, %d late, %d abandoned, %d NACKs in %d ticks, %d wraps, %d laps",
					ref.Repaired, got.Late, got.Abandoned, nacks, ticks, wraps, laps)
			}
			t.Logf("%d repaired, %d late, %d abandoned, %d NACKs in %d ticks, %d wraps (%d laps), %d slots, RTT %v",
				ref.Repaired, got.Late, got.Abandoned, nacks, ticks, wraps, laps, got.slots.Cap(), got.srtt)
		})
	}
}

// compareEvents fails the test unless the two tracers hold the same events.
func compareEvents(t *testing.T, op int, got, ref *obs.Tracer) {
	t.Helper()
	g, r := got.Events(), ref.Events()
	if len(g) != len(r) {
		t.Fatalf("op %d: %d trace events, map reference %d", op, len(g), len(r))
	}
	for i := range g {
		if g[i] != r[i] {
			t.Fatalf("op %d: trace event %d is %+v, map reference %+v", op, i, g[i], r[i])
		}
	}
}
