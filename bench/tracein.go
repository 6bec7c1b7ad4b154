package main

import (
	"time"

	"rpivideo/internal/cc"
	"rpivideo/internal/obs"
)

// The three emulated links of a run, as replay inputs index them.
const (
	linkUp = iota
	linkDown
	linkUp2
	numLinks
)

// linkOf maps a trace direction to a link index; ok is false for events
// not tied to a link.
func linkOf(d obs.Dir) (int, bool) {
	switch d {
	case obs.DirUp:
		return linkUp, true
	case obs.DirDown:
		return linkDown, true
	case obs.DirUp2:
		return linkUp2, true
	}
	return 0, false
}

// linkSend is one packet offered to a link. Link-local packet IDs are dense
// from zero, so a link's sends are indexed by ID.
type linkSend struct {
	at    time.Duration
	arrAt time.Duration // arrival time; 0 when the link dropped it
	size  int
	flags uint8
	media int32 // index into traceInput.media, -1 for control and RTX
}

// mediaPkt is one media packet as the sender transmitted it: once, or on
// both bonded paths at the same instant.
type mediaPkt struct {
	sendAt    time.Duration
	size      int
	delivered bool
	arrAt     time.Duration // first copy to arrive
}

// ccEvent is one congestion-controller rate decision, i.e. one feedback
// report reaching the sender.
type ccEvent struct {
	at     time.Duration
	genAt  time.Duration // when the receiver built the report: at minus the downlink delay
	acks   int
	detail int64
	target float64
}

// span of simulated time during which a link observed its service
// interrupted.
type outageSpan struct{ from, to time.Duration }

// owdSample is one delivered media packet's one-way delay.
type owdSample struct {
	at time.Duration
	ms float64
}

// traceInput is a run's trace digested into the inputs the per-layer
// replay drivers feed their layers.
type traceInput struct {
	dur     time.Duration
	events  []obs.Event
	sends   [numLinks][]linkSend
	media   []mediaPkt
	cc      []ccEvent
	owd     []owdSample
	outages [numLinks][]outageSpan
	drops   [4]int // by link.DropReason
	kinds   [32]int
}

// digestTrace walks a run's events once, in emission (simulation-time)
// order.
func digestTrace(events []obs.Event, dur time.Duration) *traceInput {
	in := &traceInput{dur: dur, events: events}
	var downDelay time.Duration
	var open [numLinks]bool
	for i := range events {
		ev := &events[i]
		if int(ev.Kind) < len(in.kinds) {
			in.kinds[ev.Kind]++
		}
		li, onLink := linkOf(ev.Dir)
		switch ev.Kind {
		case obs.KindSend:
			if !onLink {
				continue
			}
			s := linkSend{at: ev.T, size: int(ev.Aux), flags: ev.Flags, media: -1}
			if ev.Flags == 0 && li != linkDown {
				s.media = in.mediaIndex(ev.T, s.size, li)
			}
			in.sends[li] = append(in.sends[li], s)
		case obs.KindRecv:
			if !onLink || ev.Seq < 0 || ev.Seq >= int64(len(in.sends[li])) {
				continue
			}
			s := &in.sends[li][ev.Seq]
			s.arrAt = ev.T
			if li == linkDown {
				downDelay = time.Duration(ev.V * float64(time.Millisecond))
				continue
			}
			if s.media >= 0 {
				in.owd = append(in.owd, owdSample{at: ev.T, ms: ev.V})
				if m := &in.media[s.media]; !m.delivered {
					m.delivered, m.arrAt = true, ev.T
				}
			}
		case obs.KindDrop:
			if ev.Aux >= 0 && ev.Aux < int64(len(in.drops)) {
				in.drops[ev.Aux]++
			}
		case obs.KindCC:
			in.cc = append(in.cc, ccEvent{at: ev.T, genAt: ev.T - downDelay, acks: int(ev.Aux), detail: ev.Seq, target: ev.V})
		case obs.KindOutageStart:
			if onLink && !open[li] {
				open[li] = true
				in.outages[li] = append(in.outages[li], outageSpan{from: ev.T, to: dur})
			}
		case obs.KindOutageEnd:
			if onLink && open[li] {
				open[li] = false
				in.outages[li][len(in.outages[li])-1].to = ev.T
			}
		}
	}
	return in
}

// mediaIndex returns the media packet a media send on link li belongs to.
// The pacer releases one packet per instant, so a second uplink send at
// the same instant with the same size is the bonded copy of the packet
// just transmitted, not a new one.
func (in *traceInput) mediaIndex(at time.Duration, size, li int) int32 {
	if n := len(in.media); n > 0 && li == linkUp2 {
		if last := &in.media[n-1]; last.sendAt == at && last.size == size {
			return int32(n - 1)
		}
	}
	in.media = append(in.media, mediaPkt{sendAt: at, size: size})
	return int32(len(in.media) - 1)
}

// linkPackets counts every packet offered to any link.
func (in *traceInput) linkPackets() int {
	n := 0
	for li := range in.sends {
		n += len(in.sends[li])
	}
	return n
}

// targetAt returns the controller's target bitrate at time at: the most
// recent rate decision, or initial before the first one. Calls must not go
// back in time; cursor carries the position between them.
func (in *traceInput) targetAt(at time.Duration, initial float64, cursor *int) float64 {
	for *cursor < len(in.cc) && in.cc[*cursor].at <= at {
		*cursor++
	}
	if *cursor == 0 {
		return initial
	}
	return in.cc[*cursor-1].target
}

// ackBatch is one feedback report as the controller receives it.
type ackBatch struct {
	at   time.Duration
	acks []cc.Ack
}

// buildAckBatches reconstructs the []cc.Ack batches the run's controller
// was fed, one per rate decision in the trace, from the media packets'
// traced fates. Sequence numbers are the packets' send-order indices
// (both RTP and transport-wide numbering start at zero in this pipeline).
//
// TWCC reports (windowed false) cover contiguous ranges: each report takes
// up where the previous one stopped. RFC 8888 reports (windowed true)
// overlap: each covers the report's ack window counted back from the
// highest packet that had arrived when the receiver built it.
//
// packets is the number of distinct packets the reports cover — the count
// a per-acknowledged-packet cost divides by, since an RFC 8888 report
// repeats most of its predecessor.
func buildAckBatches(in *traceInput, windowed bool) (batches []ackBatch, packets int) {
	batches = make([]ackBatch, 0, len(in.cc))
	covered := -1 // highest packet index any report has covered
	next := 0     // TWCC: first packet of the next report
	scan := 0     // CCFB: first packet not yet known to have arrived by genAt
	highest := -1 // CCFB: highest packet arrived by genAt
	for _, ev := range in.cc {
		b := ackBatch{at: ev.at, acks: make([]cc.Ack, 0, ev.acks)}
		first := next
		if windowed {
			for scan < len(in.media) && in.media[scan].sendAt <= ev.genAt {
				if m := &in.media[scan]; m.delivered {
					if m.arrAt > ev.genAt {
						break // arrivals are in order: nothing later has arrived either
					}
					highest = scan
				}
				scan++
			}
			first = highest - ev.acks + 1
		}
		for k := first; k < first+ev.acks; k++ {
			a := cc.Ack{TransportSeq: uint16(k), Seq: uint16(k)}
			if k >= 0 && k < len(in.media) {
				m := &in.media[k]
				a.Size, a.SendTime = m.size, m.sendAt
				if m.delivered && m.arrAt <= ev.genAt {
					a.Received, a.ArrivalTime = true, m.arrAt
				}
			}
			b.acks = append(b.acks, a)
		}
		if last := first + ev.acks - 1; last > covered {
			if first > covered {
				packets += ev.acks
			} else {
				packets += last - covered
			}
			covered = last
		}
		if !windowed {
			next = first + ev.acks
		}
		batches = append(batches, b)
	}
	return batches, packets
}
