package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"rpivideo/internal/metrics"
	"rpivideo/internal/video"
)

// Tap keeps the raw samples behind every Result sketch of the runs made
// while it is installed: what each run recorded into its sketches (keyed by
// the sketch, which keeps the Result alive) and each video run's frame
// list, which the player's FPS, PlaybackMs and SSIM sketches are built
// from. It is safe for the campaign engine's parallel workers.
type Tap struct {
	mu      sync.Mutex
	samples map[*metrics.Sketch][]float64
	frames  map[*Result][]video.PlayedFrame
}

// InstallTap installs a Tap for the rest of the test.
func InstallTap(t testing.TB) *Tap {
	tp := &Tap{samples: map[*metrics.Sketch][]float64{}, frames: map[*Result][]video.PlayedFrame{}}
	sampleTap = func(d *metrics.Sketch, v float64) {
		tp.mu.Lock()
		tp.samples[d] = append(tp.samples[d], v)
		tp.mu.Unlock()
	}
	framesTap = func(r *Result, frames []video.PlayedFrame) {
		tp.mu.Lock()
		tp.frames[r] = frames
		tp.mu.Unlock()
	}
	t.Cleanup(func() { sampleTap, framesTap = nil, nil })
	return tp
}

// Samples returns the raw samples behind one of r's sketches, in the order
// the run recorded them.
func (tp *Tap) Samples(r *Result, d *metrics.Sketch) []float64 {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	frames, played := tp.frames[r]
	switch {
	case played && d == &r.FPS:
		perSecond := make([]float64, int(r.Duration/time.Second))
		for _, f := range frames {
			if sec := int(f.PlayedAt / time.Second); !f.Skipped && sec < len(perSecond) {
				perSecond[sec]++
			}
		}
		return perSecond
	case played && d == &r.PlaybackMs:
		var out []float64
		for _, f := range frames {
			if !f.Skipped {
				out = append(out, float64(f.Latency)/float64(time.Millisecond))
			}
		}
		return out
	case played && d == &r.SSIM:
		out := make([]float64, len(frames))
		for i, f := range frames {
			out[i] = f.SSIM
		}
		return out
	}
	return tp.samples[d]
}

// Results returns the video runs the tap saw.
func (tp *Tap) Results() []*Result {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	out := make([]*Result, 0, len(tp.frames))
	for r := range tp.frames {
		out = append(out, r)
	}
	return out
}

// ResultSketches lists every sketch of a Result by field name, the altitude
// arrays as Name[i].
func ResultSketches(r *Result) map[string]*metrics.Sketch { return tallySketches(&r.Tally) }

// tallySketches lists every sketch of a Tally, which holds them all.
func tallySketches(tl *Tally) map[string]*metrics.Sketch {
	out := map[string]*metrics.Sketch{}
	v := reflect.ValueOf(tl).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		switch f := v.Field(i).Addr().Interface().(type) {
		case *metrics.Sketch:
			out[name] = f
		case *[altBuckets]metrics.Sketch:
			for b := range f {
				out[fmt.Sprintf("%s[%d]", name, b)] = &f[b]
			}
		}
	}
	return out
}

// CheckSketches holds every sketch of a tapped run to the sketch its raw
// samples build when added in order — exact samples, buckets, N, extremes
// and Sum alike — and returns how many samples it compared.
func (tp *Tap) CheckSketches(t testing.TB, r *Result) int {
	t.Helper()
	n := 0
	for name, d := range ResultSketches(r) {
		var ref metrics.Sketch
		samples := tp.Samples(r, d)
		for _, v := range samples {
			ref.Add(v)
		}
		n += len(samples)
		if !reflect.DeepEqual(&ref, d) {
			t.Errorf("%s: the run's sketch (N %d, [%g, %g], sum %g) is not the one its %d raw samples build (N %d, [%g, %g], sum %g)",
				name, d.N(), d.Quantile(0), d.Max(), d.Sum(), len(samples), ref.N(), ref.Quantile(0), ref.Max(), ref.Sum())
		}
	}
	return n
}
