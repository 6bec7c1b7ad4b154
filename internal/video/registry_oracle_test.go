package video

import (
	"math/rand"
	"testing"
)

// mapFrameRegistry is the frame registry as it stood before the ring: a map
// that, once it holds more than 1200 frames, is rescanned whole on every
// registration to delete what lies more than 1200 frames behind.
type mapFrameRegistry map[uint32]frameSlot

func (m mapFrameRegistry) register(f Frame) {
	m[f.Num] = frameSlot{rate: f.Rate, complexity: f.Complexity}
	// Bound memory: drop entries older than ~40 s of video.
	if len(m) > 1200 {
		cut := f.Num - 1200
		for n := range m {
			if n < cut {
				delete(m, n)
			}
		}
	}
}

func (m mapFrameRegistry) encoding(num uint32) (rate, complexity float64, ok bool) {
	fi, ok := m[num]
	return fi.rate, fi.complexity, ok
}

// windowFrameRegistry states the ring's contract as a map: a registered
// frame answers while it is at most frameWindow behind the newest. On the
// encoder's consecutive numbering it is the old map exactly; across a gap
// the old map also kept older frames until its next sweep, which no caller
// could rely on.
type windowFrameRegistry struct {
	m      map[uint32]frameSlot
	latest uint32
}

func (w *windowFrameRegistry) register(f Frame) {
	w.m[f.Num] = frameSlot{rate: f.Rate, complexity: f.Complexity}
	w.latest = f.Num
	for n := range w.m {
		if w.latest-n > frameWindow {
			delete(w.m, n)
		}
	}
}

func (w *windowFrameRegistry) encoding(num uint32) (rate, complexity float64, ok bool) {
	fi, ok := w.m[num]
	return fi.rate, fi.complexity, ok
}

// checkRegistry compares the sender's registry with ref on a spread of
// lookups: ahead of the newest frame, and 0…3 000 behind it.
func checkRegistry(t *testing.T, rng *rand.Rand, snd *Sender, latest uint32, ref func(uint32) (float64, float64, bool)) {
	t.Helper()
	nums := []uint32{latest + 1, latest + frameSlots, latest, latest - frameWindow, latest - frameWindow - 1,
		latest - frameSlots, latest - frameSlots - 1}
	for i := 0; i < 8; i++ {
		nums = append(nums, latest-uint32(rng.Intn(3001)))
	}
	for _, num := range nums {
		gr, gc, gok := snd.FrameEncoding(num)
		wr, wc, wok := ref(num)
		if gr != wr || gc != wc || gok != wok {
			t.Fatalf("latest %d, frame %d: ring (%g, %g, %v), reference (%g, %g, %v)", latest, num, gr, gc, gok, wr, wc, wok)
		}
	}
}

// TestFrameRegistryMatchesMapOracle drives the ring and the map it replaced
// with the numbering the encoder produces — consecutive from zero, far past
// the prune cut — and compares lookups after every registration.
func TestFrameRegistryMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	snd, ref := &Sender{}, mapFrameRegistry{}
	if _, _, ok := snd.FrameEncoding(0); ok {
		t.Fatal("empty registry answers for frame 0")
	}
	for num := uint32(0); num < 3*frameSlots; num++ {
		f := Frame{Num: num, Rate: rng.Float64() * 25e6, Complexity: 0.5 + rng.Float64()}
		snd.registerFrame(f)
		ref.register(f)
		checkRegistry(t, rng, snd, num, ref.encoding)
	}
}

// TestFrameRegistryWindowAcrossGaps: with gaps in the numbering (up to
// several windows wide), the ring answers exactly for registered frames at
// most frameWindow behind the newest — a stale slot never aliases.
func TestFrameRegistryWindowAcrossGaps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	snd, ref := &Sender{}, &windowFrameRegistry{m: map[uint32]frameSlot{}}
	num := uint32(rng.Intn(5000))
	for i := 0; i < 20_000; i++ {
		switch r := rng.Intn(100); {
		case r < 90:
			num++
		case r < 98:
			num += uint32(2 + rng.Intn(40))
		default:
			num += uint32(rng.Intn(3 * frameSlots))
		}
		f := Frame{Num: num, Rate: rng.Float64() * 25e6, Complexity: 0.5 + rng.Float64()}
		snd.registerFrame(f)
		ref.register(f)
		checkRegistry(t, rng, snd, num, ref.encoding)
	}
}
