// Package analyze turns raw trace events into the paper's derived analyses:
// per-second time series (the Fig. 8 handover timeline), handover- and
// RLF-aligned epoch windows (the Fig. 9 pre/post latency-ratio statistic),
// outage episodes and repair summaries — computed from events alone, so the
// same analysis runs against a live run's tracer or a JSONL trace replayed
// from disk.
//
// Determinism contract: every time quantity is reduced to integer
// microseconds (the JSONL writer's granularity) before any arithmetic, and
// float accumulation follows the trace's event order. A live tracer feed
// and its JSONL round-trip therefore produce byte-identical report bundles
// — the property rpbench's -report path and the regression suite pin.
package analyze

import (
	"math"
	"sort"
	"time"

	"rpivideo/internal/obs"
)

const (
	usPerSecond = int64(time.Second / time.Microsecond)
	// windowUs is the Fig. 9 epoch window length: one second on each side
	// of the handover (before onset; after completion).
	windowUs = usPerSecond
)

// Second is one second-aligned bin of a run's trace: media-plane packet and
// delay statistics plus the event counts a timeline plot annotates.
// OWD statistics cover delivered first-transmission media packets on the
// uplink (control and RTX traffic excluded) — the same sample set the
// paper's latency figures use.
type Second struct {
	// T is the bin index: events with T/1s == T land here.
	T int64 `json:"t_s"`

	OWDSamples int64   `json:"owd_samples"`
	OWDMinMs   float64 `json:"owd_min_ms"`
	OWDMeanMs  float64 `json:"owd_mean_ms"`
	OWDMaxMs   float64 `json:"owd_max_ms"`

	// GoodputMbps is delivered media wire bytes in the bin, in Mbit/s.
	GoodputMbps float64 `json:"goodput_mbps"`
	// TargetMbps is the last congestion-controller target set in the bin
	// (0 when the bin saw no CC decision).
	TargetMbps float64 `json:"target_mbps"`

	Sent    int64 `json:"sent"`
	Recv    int64 `json:"recv"`
	Dropped int64 `json:"dropped"`

	Handovers     int64 `json:"handovers"`
	RLFs          int64 `json:"rlfs"`
	Stalls        int64 `json:"stalls"`
	FramesPlayed  int64 `json:"frames_played"`
	FramesSkipped int64 `json:"frames_skipped"`

	owdSumMs float64
}

// Epoch is one radio event's aligned analysis window: the Fig. 9 statistic.
// The pre window is the second before the event's onset, the post window
// the second after its completion (onset + gap). A ratio is valid only when
// its window holds at least one OWD sample with a positive minimum.
type Epoch struct {
	// Kind is "handover" or "rlf".
	Kind string `json:"kind"`
	// AtUs is the event's onset time.
	AtUs int64 `json:"at_us"`
	// GapUs is the service gap: handover execution time, or the RLF
	// blackout (both quantized from the event's millisecond payload).
	GapUs int64 `json:"gap_us"`
	// Src and Dst are the cells involved (handover only; Src is the
	// serving cell for an RLF).
	Src int64 `json:"src"`
	Dst int64 `json:"dst"`

	PreRatio    float64 `json:"pre_ratio"`
	PreOK       bool    `json:"pre_ok"`
	PreSamples  int64   `json:"pre_samples"`
	PostRatio   float64 `json:"post_ratio"`
	PostOK      bool    `json:"post_ok"`
	PostSamples int64   `json:"post_samples"`
}

// Outage is one service interruption observed on a link direction, paired
// from outage-start/outage-end events.
type Outage struct {
	// Dir is the link the outage was observed on ("" for the primary
	// radio chain).
	Dir     string `json:"dir"`
	StartUs int64  `json:"start_us"`
	// EndUs is the resumption time; for an outage still open when the
	// trace ends it is the run duration, with Open set.
	EndUs int64 `json:"end_us"`
	Open  bool  `json:"open,omitempty"`
}

// DurationUs returns the outage length.
func (o Outage) DurationUs() int64 { return o.EndUs - o.StartUs }

// RepairSummary aggregates the NACK/RTX repair layer's trace events.
type RepairSummary struct {
	NacksSent     int64 `json:"nacks_sent"`
	RtxSent       int64 `json:"rtx_sent"`
	RepairedByRtx int64 `json:"repaired_by_rtx"`
	RepairedLate  int64 `json:"repaired_late"`
	Abandoned     int64 `json:"abandoned"`

	// Loss-to-heal delay over all repaired packets, in milliseconds.
	HealMinMs  float64 `json:"heal_min_ms"`
	HealMeanMs float64 `json:"heal_mean_ms"`
	HealMaxMs  float64 `json:"heal_max_ms"`

	healSumMs float64
}

// RunAnalysis is the full derived analysis of one run's trace.
type RunAnalysis struct {
	Meta    obs.RunMeta
	Seconds []Second
	Epochs  []Epoch
	Outages []Outage
	Repair  RepairSummary

	// owd keeps the media OWD samples in time order for the window queries
	// (OWDWindow); it is not exported with the bundle.
	owd []OWDSample
}

// OWDSample is one delivered media packet's one-way delay at its arrival
// time, quantized to microseconds like every time in the package.
type OWDSample struct {
	TUs int64
	Ms  float64
}

// mediaOWD reports whether ev carries a one-way-delay sample of the media
// plane: a delivered first-transmission uplink media packet.
func mediaOWD(ev *obs.Event) bool {
	return ev.Kind == obs.KindRecv && ev.Dir == obs.DirUp && ev.Flags == 0
}

// msToUs quantizes a millisecond float payload (HET, blackout length) to
// integer microseconds.
func msToUs(ms float64) int64 { return int64(math.Round(ms * 1000)) }

// Run analyzes one run's trace chunks, in order, under its meta header. Events
// are expected in emission order (simulation-time order), which the tracer
// guarantees. The JSONL reader does not enforce it, so a trace edited by hand
// may go back in time: its per-second bins do not care, and the OWD samples
// are put back in time order once so the window queries can search them.
func Run(meta obs.RunMeta, chunks ...[]obs.Event) *RunAnalysis {
	z := newAnalyzer(meta)
	for _, c := range chunks {
		z.add(c...)
	}
	return z.finish()
}

// analyzer is Run's fold: add takes the events in order, a chunk at a time,
// and finish settles what needs the whole trace.
type analyzer struct {
	a *RunAnalysis
	// open holds each direction's outage start while one is open; a trace
	// carries only the four directions the JSONL schema names.
	open [obs.DirUp2 + 1]struct {
		startUs int64
		on      bool
	}
	ordered bool // the OWD samples so far are in time order
}

func newAnalyzer(meta obs.RunMeta) analyzer {
	z := analyzer{a: &RunAnalysis{Meta: meta, Seconds: make([]Second, max(1, (meta.Duration.Microseconds()+usPerSecond-1)/usPerSecond))}, ordered: true}
	for i := range z.a.Seconds {
		z.a.Seconds[i].T = int64(i)
	}
	return z
}

func (z *analyzer) add(events ...obs.Event) {
	a := z.a
	for i := range events {
		ev := &events[i]
		tUs := ev.T.Microseconds()
		// A time outside the run lands in its first or last second.
		b := &a.Seconds[min(max(tUs/usPerSecond, 0), int64(len(a.Seconds))-1)]
		switch ev.Kind {
		case obs.KindSend:
			if ev.Flags == 0 && ev.Dir == obs.DirUp {
				b.Sent++
			}
		case obs.KindRecv:
			if mediaOWD(ev) {
				b.Recv++
				b.GoodputMbps += float64(ev.Aux) * 8 / 1e6
				b.OWDSamples++
				b.owdSumMs += ev.V
				if b.OWDSamples == 1 || ev.V < b.OWDMinMs {
					b.OWDMinMs = ev.V
				}
				if b.OWDSamples == 1 || ev.V > b.OWDMaxMs {
					b.OWDMaxMs = ev.V
				}
				if n := len(a.owd); n > 0 && tUs < a.owd[n-1].TUs {
					z.ordered = false
				}
				a.owd = append(a.owd, OWDSample{TUs: tUs, Ms: ev.V})
			}
		case obs.KindDrop:
			if ev.Flags == 0 && ev.Dir == obs.DirUp {
				b.Dropped++
			}
		case obs.KindHandover:
			b.Handovers++
			a.Epochs = append(a.Epochs, Epoch{
				Kind: "handover", AtUs: tUs, GapUs: msToUs(ev.V),
				Src: ev.Seq, Dst: ev.Aux,
			})
		case obs.KindRLF:
			b.RLFs++
			a.Epochs = append(a.Epochs, Epoch{
				Kind: "rlf", AtUs: tUs, GapUs: msToUs(ev.V), Src: ev.Seq,
			})
		case obs.KindCC:
			b.TargetMbps = ev.V / 1e6
		case obs.KindStall:
			b.Stalls++
		case obs.KindFramePlay:
			b.FramesPlayed++
		case obs.KindFrameSkip:
			b.FramesSkipped++
		case obs.KindOutageStart:
			if o := &z.open[ev.Dir]; !o.on {
				o.startUs, o.on = tUs, true
			}
		case obs.KindOutageEnd:
			if o := &z.open[ev.Dir]; o.on {
				o.on = false
				a.Outages = append(a.Outages, Outage{Dir: ev.Dir.String(), StartUs: o.startUs, EndUs: tUs})
			}
		case obs.KindNack:
			a.Repair.NacksSent++
		case obs.KindRTX:
			a.Repair.RtxSent++
		case obs.KindRepairOK:
			if ev.Aux == 1 {
				a.Repair.RepairedByRtx++
			} else {
				a.Repair.RepairedLate++
			}
			n := a.Repair.RepairedByRtx + a.Repair.RepairedLate
			a.Repair.healSumMs += ev.V
			if n == 1 || ev.V < a.Repair.HealMinMs {
				a.Repair.HealMinMs = ev.V
			}
			if n == 1 || ev.V > a.Repair.HealMaxMs {
				a.Repair.HealMaxMs = ev.V
			}
		case obs.KindRepairAbandoned:
			a.Repair.Abandoned++
		}
	}
}

func (z *analyzer) finish() *RunAnalysis {
	a, durUs := z.a, z.a.Meta.Duration.Microseconds()
	// Outages still open when the trace ends run to the end of the run.
	for dir, o := range z.open {
		if o.on {
			a.Outages = append(a.Outages, Outage{Dir: obs.Dir(dir).String(), StartUs: o.startUs, EndUs: durUs, Open: true})
		}
	}

	// Finish the per-second means.
	for i := range a.Seconds {
		if s := &a.Seconds[i]; s.OWDSamples > 0 {
			s.OWDMeanMs = s.owdSumMs / float64(s.OWDSamples)
		}
	}
	if n := a.Repair.RepairedByRtx + a.Repair.RepairedLate; n > 0 {
		a.Repair.HealMeanMs = a.Repair.healSumMs / float64(n)
	}

	// The window queries search the samples by time; a trace that went back
	// in time gets them put in order here, once.
	if !z.ordered {
		sort.SliceStable(a.owd, func(i, j int) bool { return a.owd[i].TUs < a.owd[j].TUs })
	}
	// Fill the epoch windows now that all OWD samples are collected.
	for i := range a.Epochs {
		e := &a.Epochs[i]
		e.PreRatio, e.PreSamples, e.PreOK = a.windowRatio(e.AtUs-windowUs, e.AtUs)
		end := e.AtUs + e.GapUs
		e.PostRatio, e.PostSamples, e.PostOK = a.windowRatio(end, end+windowUs)
	}
	return a
}

// OWDWindow returns the media OWD samples with fromUs ≤ t < toUs, in time
// order. The slice aliases the analysis; callers must not modify it.
func (a *RunAnalysis) OWDWindow(fromUs, toUs int64) []OWDSample {
	lo := sort.Search(len(a.owd), func(i int) bool { return a.owd[i].TUs >= fromUs })
	hi := sort.Search(len(a.owd), func(i int) bool { return a.owd[i].TUs >= toUs })
	if hi < lo {
		return nil
	}
	return a.owd[lo:hi]
}

// windowRatio computes max/min OWD over the window [fromUs, toUs): the
// paper's Fig. 9 statistic. No samples or a non-positive minimum yields
// ok=false.
func (a *RunAnalysis) windowRatio(fromUs, toUs int64) (ratio float64, n int64, ok bool) {
	w := a.OWDWindow(fromUs, toUs)
	if len(w) == 0 {
		return 0, 0, false
	}
	min, max := w[0].Ms, w[0].Ms
	for _, s := range w[1:] {
		if s.Ms < min {
			min = s.Ms
		}
		if s.Ms > max {
			max = s.Ms
		}
	}
	if min <= 0 {
		return 0, int64(len(w)), false
	}
	return max / min, int64(len(w)), true
}

// Trace analyzes every run of a parsed JSONL trace.
func Trace(runs []obs.TraceRun) []*RunAnalysis {
	out := make([]*RunAnalysis, len(runs))
	for i, r := range runs {
		out[i] = Run(r.Meta, r.Events)
	}
	return out
}

// RatioStats aggregates one side of the Fig. 9 statistic across runs.
type RatioStats struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`

	sum float64
}

func (r *RatioStats) add(v float64) {
	r.Count++
	r.sum += v
	if r.Count == 1 || v < r.Min {
		r.Min = v
	}
	if r.Count == 1 || v > r.Max {
		r.Max = v
	}
	r.Mean = r.sum / float64(r.Count)
}

// Fig9 folds every valid epoch window of the analyzed runs (in run order,
// then event order) into the pre/post ratio aggregate.
func Fig9(runs []*RunAnalysis) (pre, post RatioStats) {
	for _, a := range runs {
		for _, e := range a.Epochs {
			if e.Kind != "handover" {
				continue
			}
			if e.PreOK {
				pre.add(e.PreRatio)
			}
			if e.PostOK {
				post.add(e.PostRatio)
			}
		}
	}
	return pre, post
}
