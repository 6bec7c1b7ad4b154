package endpoint

import (
	"bytes"
	"encoding/binary"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"rpivideo/internal/cc"
	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
	"rpivideo/internal/flight"
	"rpivideo/internal/link"
	"rpivideo/internal/obs"
	"rpivideo/internal/rtp"
	"rpivideo/internal/scream"
	"rpivideo/internal/sim"
	"rpivideo/internal/video"
)

// fullTranslation is the RFC 8888 consumer as it was before onCCFB left
// repeats out, kept as the oracle: every metric block of every report block
// becomes an ack.
func fullTranslation(s *Sender, buf []byte, at time.Duration) Verdict {
	var fb rtp.CCFB
	if fb.Unmarshal(buf) != nil {
		return Rejected
	}
	for _, rep := range fb.Reports {
		acks := make([]cc.Ack, 0, len(rep.Metrics))
		for i, m := range rep.Metrics {
			seq := rep.BeginSeq + uint16(i)
			a := cc.Ack{Seq: seq, Received: m.Received}
			if m.Received {
				a.ArrivalTime = fb.Timestamp - m.ArrivalOffset
			}
			if rec, ok := s.Video.LookupSeq(seq); ok {
				a.Size, a.SendTime = rec.Size, rec.SendTime
			}
			acks = append(acks, a)
		}
		s.ctrl.OnFeedback(at, acks)
	}
	s.Video.Kick()
	return Control
}

// isCCFB reports whether buf is RFC 8888 feedback.
func isCCFB(buf []byte) bool {
	pt, format, ok := rtp.PeekRTCP(buf)
	return ok && pt == rtp.TypeTransportFeedback && format == rtp.FmtCCFB
}

// screamState is what a SCReAM sender's controller holds between reports.
type screamState struct {
	cwnd, target                         float64
	srtt, qdelay                         time.Duration
	inFlight, losses, window, inBand, qd int
}

// stateOf reads the controller's window, round-trip and queue-delay
// estimates and bytes in flight from its unexported fields: nothing outside
// the controller asks for them.
func stateOf(s *Sender, now time.Duration) screamState {
	c := s.Ctrl.(*scream.Controller)
	v := reflect.ValueOf(c).Elem()
	return screamState{v.FieldByName("cwnd").Float(), c.TargetBitrate(now),
		time.Duration(v.FieldByName("srtt").Int()), time.Duration(v.FieldByName("qdelay").Int()),
		int(v.FieldByName("bytesInFlight").Int()), c.Losses, c.LossesWindow, c.LossesInBand, c.QueueDiscards}
}

// screamFlight is one SCReAM flight over core.Run's single-path network,
// wired as core.Run wires it: the deployment and handover machine on the
// "cell" stream, the access uplink and the feedback downlink under an
// optional outage script, both endpoints, the target sampler and the timer
// order of Sender.StartReports. Only the sender's RFC 8888 consumer is the
// caller's: full selects the oracle.
type screamFlight struct {
	env    cell.Environment
	seed   int64
	dur    time.Duration
	window int            // RFC 8888 ack window; 0 is the campaign's 256
	faults []fault.Window // outages; arms the 750 ms feedback watchdog
}

// flightLog is what one side of a twin flight recorded.
type flightLog struct {
	states  []screamState // after every report
	at      []time.Duration
	cc      []obs.Event // the controller's decisions
	sent    int
	maxIdle time.Duration // longest silence between two reports
}

func (f screamFlight) fly(full bool) flightLog {
	s := sim.New(f.seed)
	prof := flight.StandardFlight()
	rng := s.Stream("cell")
	model := cell.NewSignalModel(f.env, cell.Deployment(f.env, cell.P1, rng), cell.DefaultSignalConfigFor(f.env), rng)
	hoCfg := cell.DefaultHandoverConfigFor(f.env)
	machine := cell.NewMachine(model, hoCfg, true, rng)
	s.Every(0, hoCfg.MeasurementInterval, func() { machine.Step(s.Now(), prof.At(s.Now())) })
	up := link.New(s, link.ProfileFor(f.env, cell.P1), machine, nil, s.Stream("uplink"))
	down := link.New(s, link.FeedbackProfile(), machine, nil, s.Stream("downlink"))
	up.SetFlight(prof)
	down.SetFlight(prof)

	tr := obs.New(0)
	vcfg := video.DefaultSenderConfig()
	scfg := SenderConfig{Video: vcfg, CC: CCSCReAM, Trace: tr}
	if len(f.faults) > 0 {
		up.SetFaults(fault.NewPathLine(f.faults, fault.Uplink, fault.PathAll), true, 0)
		down.SetFaults(fault.NewPathLine(f.faults, fault.Downlink, fault.PathAll), true, 0)
		scfg.FeedbackTimeout = 750 * time.Millisecond
	}
	snd := NewSender(s, scfg)
	pcfg := video.DefaultPlayerConfig()
	pcfg.LatchQuirk = true
	rcv := NewReceiver(s, ReceiverConfig{SSRC: vcfg.SSRC, PayloadType: vcfg.PayloadType, Player: pcfg,
		FrameEncoding: snd.Video.FrameEncoding, CCFB: true, CCFBWindow: f.window})
	snd.Media = func(p *rtp.Packet, size int) { up.Send(p, size) }
	snd.Control = func(d *rtp.Datagram) { up.SendControl(d, len(d.B)) }
	rcv.Feedback = func(d *rtp.Datagram, size int) { down.Send(d, size) }
	up.Deliver = func(meta any, _ int, _, at time.Duration) {
		switch m := meta.(type) {
		case *rtp.Packet:
			rcv.OnMedia(m, at)
		case *rtp.Datagram:
			rcv.OnDatagram(m.B, at)
			m.Release()
		}
	}
	var log flightLog
	down.Deliver = func(meta any, _ int, _, at time.Duration) {
		d := meta.(*rtp.Datagram)
		defer d.Release()
		buf := d.B
		if !isCCFB(buf) {
			snd.OnDatagram(buf, at)
			return
		}
		if full {
			fullTranslation(snd, buf, at)
		} else {
			snd.OnDatagram(buf, at)
		}
		if n := len(log.at); n > 0 && at-log.at[n-1] > log.maxIdle {
			log.maxIdle = at - log.at[n-1]
		}
		log.states = append(log.states, stateOf(snd, at))
		log.at = append(log.at, at)
	}

	rcv.StartRepair()
	snd.StartReports()
	rcv.StartReports()
	// core.Run's target sampler: its rate query latches the watchdog.
	s.Every(0, 100*time.Millisecond, func() { snd.TargetBitrate(s.Now()) })
	snd.Start()
	s.RunUntil(f.dur)
	log.cc = tr.Events()
	log.sent = snd.Video.PacketsSent
	return log
}

// urbanSCReAMGolden returns the seed and the controller decisions of the
// urban-scream golden trace.
func urbanSCReAMGolden(t *testing.T) (int64, []obs.Event) {
	t.Helper()
	f, err := os.Open("../experiments/testdata/golden/urban-scream.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runs, err := obs.ReadJSONL(f)
	if err != nil || len(runs) != 1 {
		t.Fatalf("golden trace: %d runs, %v", len(runs), err)
	}
	var decisions []obs.Event
	for _, ev := range runs[0].Events {
		if ev.Kind == obs.KindCC {
			decisions = append(decisions, ev)
		}
	}
	return runs[0].Meta.Seed, decisions
}

// asWritten is evs as a trace file carries them (microsecond times, rounded
// values).
func asWritten(t *testing.T, evs []obs.Event) []obs.Event {
	t.Helper()
	var b bytes.Buffer
	if err := obs.WriteJSONL(&b, obs.RunMeta{}, evs); err != nil {
		t.Fatal(err)
	}
	runs, err := obs.ReadJSONL(&b)
	if err != nil {
		t.Fatal(err)
	}
	return runs[0].Events
}

// TestCCFBFilterMatchesFullTranslation flies each flight twice on one seed:
// once with the sender's RFC 8888 consumer, once with the full translation
// it replaced. After every report the two controllers must hold the same
// window, target, RTT and queuing-delay estimates, bytes in flight and loss
// counters, and they must have traced the same decisions — cwnd, the span
// the report covered and the target. The flights are the urban-scream
// golden scenario (checked against its trace), the paper's 64-packet window
// at rates that overrun it, an outage the feedback watchdog restarts the
// controller after, and a flight long enough to wrap the 16-bit RTP
// sequence space.
func TestCCFBFilterMatchesFullTranslation(t *testing.T) {
	seed, golden := urbanSCReAMGolden(t)
	for _, c := range []struct {
		name  string
		f     screamFlight
		check func(t *testing.T, l flightLog)
	}{
		{"urban-scream", screamFlight{env: cell.Urban, seed: seed, dur: 4 * time.Second}, func(t *testing.T, l flightLog) {
			if got := asWritten(t, l.cc); !slices.Equal(got, golden) {
				t.Errorf("%d decisions, not the golden trace's %d", len(got), len(golden))
			}
		}},
		{"window 64", screamFlight{env: cell.Urban, seed: 2, dur: 20 * time.Second, window: 64}, func(t *testing.T, l flightLog) {
			if last := l.states[len(l.states)-1]; last.window == 0 {
				t.Error("no packet fell out of the 64-packet window")
			}
		}},
		{"outage", screamFlight{env: cell.Rural, seed: 3, dur: 12 * time.Second,
			faults: []fault.Window{{Start: 5 * time.Second, Duration: 2 * time.Second}}}, func(t *testing.T, l flightLog) {
			if l.maxIdle <= 750*time.Millisecond {
				t.Errorf("longest feedback silence %v: the watchdog never restarted the controller", l.maxIdle)
			}
		}},
		{"wrap", screamFlight{env: cell.Urban, seed: 4, dur: 46 * time.Second}, func(t *testing.T, l flightLog) {
			if l.sent <= 1<<16 {
				t.Errorf("%d packets sent: the sequence space never wrapped", l.sent)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, want := c.f.fly(false), c.f.fly(true)
			if len(got.states) == 0 || len(got.states) != len(want.states) || len(got.cc) != len(want.cc) {
				t.Fatalf("%d reports and %d decisions filtered, %d and %d full",
					len(got.states), len(got.cc), len(want.states), len(want.cc))
			}
			for i := range want.states {
				if got.states[i] != want.states[i] || got.at[i] != want.at[i] {
					t.Fatalf("report %d at %v: filtered %+v, full %+v", i, want.at[i], got.states[i], want.states[i])
				}
			}
			for i := range want.cc {
				if got.cc[i] != want.cc[i] {
					t.Fatalf("decision %d: filtered %+v, full %+v", i, got.cc[i], want.cc[i])
				}
			}
			last := got.states[len(got.states)-1]
			t.Logf("%d reports, %d packets sent, %d window and %d in-band losses, longest feedback silence %v",
				len(got.states), got.sent, last.window, last.inBand, got.maxIdle)
			c.check(t, got)
		})
	}
}

// ccfbBlock is one RFC 8888 report block as it goes on the wire: begin_seq
// and the metric words, any number of them.
type ccfbBlock struct {
	begin uint16
	words []uint16
}

// receivedWord is the metric word of a packet that arrived ato before the
// report (saturating at the 13-bit field).
func receivedWord(ato time.Duration) uint16 {
	return 1<<15 | uint16(min(ato*1024/time.Second, 0x1FFF))
}

// ccfbDatagram assembles an RFC 8888 packet by hand, so a test can send
// what CCFB.Marshal refuses to write: empty blocks and blocks beyond 16 384
// metrics.
func ccfbDatagram(ts time.Duration, blocks ...ccfbBlock) []byte {
	buf := []byte{0x80 | rtp.FmtCCFB, rtp.TypeTransportFeedback, 0, 0, 0, 0, 0, receiverSSRC}
	for _, b := range blocks {
		buf = binary.BigEndian.AppendUint32(buf, video.DefaultSenderConfig().SSRC)
		buf = binary.BigEndian.AppendUint16(buf, b.begin)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(b.words)))
		for _, w := range b.words {
			buf = binary.BigEndian.AppendUint16(buf, w)
		}
		if len(b.words)%2 == 1 {
			buf = append(buf, 0, 0)
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(ts/time.Second)<<16|uint32(ts%time.Second*65536/time.Second))
	binary.BigEndian.PutUint16(buf[2:], uint16(len(buf)/4-1))
	return buf
}

// ackCounter records the length of every ack list it is handed.
type ackCounter struct {
	cc.Static
	lists []int
}

func (a *ackCounter) OnFeedback(_ time.Duration, acks []cc.Ack) { a.lists = append(a.lists, len(acks)) }

// TestCCFBBlockBounds pins what the sender does at RFC 8888's bound of
// 16 384 metric blocks per report block: up to it every block reaches the
// controller, beyond it the datagram is rejected before anything does, and
// an empty block is still one (empty) report.
func TestCCFBBlockBounds(t *testing.T) {
	block := func(begin uint16, n int) ccfbBlock {
		b := ccfbBlock{begin: begin, words: make([]uint16, n)}
		for i := range b.words {
			b.words[i] = receivedWord(time.Duration(i) * time.Microsecond)
		}
		return b
	}
	for _, c := range []struct {
		name   string
		blocks []ccfbBlock
		want   Verdict
		lists  []int
	}{
		{"one block at the bound", []ccfbBlock{block(100, 1<<14)}, Control, []int{1 << 14}},
		{"one block past the bound", []ccfbBlock{block(100, 1<<14+1)}, Rejected, nil},
		{"a block round the whole sequence space", []ccfbBlock{block(100, 1<<16-1)}, Rejected, nil},
		{"a short block, then one past the bound", []ccfbBlock{block(100, 3), block(100, 1<<14+1)}, Rejected, nil},
		{"an empty block", []ccfbBlock{{begin: 7}}, Control, []int{0}},
		{"an empty block between two", []ccfbBlock{block(7, 5), {begin: 7}, block(7, 1)}, Control, []int{5, 0, 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			snd := NewSender(sim.New(1), SenderConfig{Video: video.DefaultSenderConfig(), CC: CCSCReAM})
			rec := &ackCounter{}
			snd.ctrl = rec
			if v := snd.OnDatagram(ccfbDatagram(time.Second, c.blocks...), time.Second); v != c.want {
				t.Fatalf("verdict %v, want %v", v, c.want)
			}
			if !slices.Equal(rec.lists, c.lists) {
				t.Fatalf("ack lists %v, want %v", rec.lists, c.lists)
			}
		})
	}
}

// screamTwin is a SCReAM sender with nothing below it: what it sends is
// only remembered, so reports can name it.
type screamTwin struct {
	s      *sim.Simulator
	snd    *Sender
	tr     *obs.Tracer
	newest uint16 // the highest sequence number sent
}

func newScreamTwin() *screamTwin {
	w := &screamTwin{s: sim.New(1), tr: obs.New(0)}
	w.snd = NewSender(w.s, SenderConfig{Video: video.DefaultSenderConfig(), CC: CCSCReAM,
		FeedbackTimeout: 750 * time.Millisecond, Trace: w.tr})
	w.snd.Media = func(p *rtp.Packet, _ int) { w.newest = p.Header.SequenceNumber }
	w.snd.Start()
	return w
}

// TestBondedSCReAMSteersOnItsSendQueue starves a SCReAM sender of
// acknowledgements, plain and bonded (a path budget wraps its rate queries
// in cc.Bonded): the window fills, the send queue ages past SCReAM's
// discard age, and the next report must discard the queue in both: the
// controller gets the queue (§4.2.1) whatever wraps its rate queries.
func TestBondedSCReAMSteersOnItsSendQueue(t *testing.T) {
	for _, c := range []struct {
		name   string
		budget func() float64
	}{{"plain", nil}, {"bonded", func() float64 { return 0 }}} {
		t.Run(c.name, func(t *testing.T) {
			s := sim.New(1)
			snd := NewSender(s, SenderConfig{Video: video.DefaultSenderConfig(), CC: CCSCReAM, PathBudget: c.budget})
			var first uint16
			sent := 0
			snd.Media = func(p *rtp.Packet, _ int) {
				if sent == 0 {
					first = p.Header.SequenceNumber
				}
				sent++
				p.Release()
			}
			snd.Start()
			s.RunUntil(time.Second)
			if d := snd.Video.Queue().Delay(s.Now()); sent == 0 || d <= 100*time.Millisecond {
				t.Fatalf("%d packets sent, queue delay %v: the window never filled", sent, d)
			}
			snd.OnDatagram(ccfbDatagram(time.Second, ccfbBlock{begin: first, words: []uint16{receivedWord(0)}}), time.Second)
			if n := snd.Ctrl.(*scream.Controller).QueueDiscards; n != 1 {
				t.Errorf("%d queue discards, want 1", n)
			}
			if d := snd.Video.Queue().Delay(s.Now()); d != 0 {
				t.Errorf("queue delay %v after the discard, want 0", d)
			}
		})
	}
}

// FuzzCCFBAckFilter drives twin SCReAM senders, one consuming RFC 8888
// reports through Sender.OnDatagram and one through the full translation,
// with a script of reports. Each step lets the clocks run, then names a
// window anywhere in the 16-bit space, counted back from the newest packet
// sent or from the previous report's end — repeating or overlapping it,
// skipping ahead, across the 65535→0 wrap, empty — and which of its packets
// arrived, in any pattern of gaps, late arrivals and reordering, and when.
// After every step the two controllers must hold the same state and have
// traced the same decisions.
func FuzzCCFBAckFilter(f *testing.F) {
	steady := []byte{}
	for i := 0; i < 30; i++ { // 10 ms apart, the newest 255, all received
		steady = append(steady, 10, 0, 0, 255, 1<<3)
		steady = append(steady, bytes.Repeat([]byte{0xFF}, 32)...)
	}
	f.Add(steady)
	f.Add([]byte{10, 0, 0, 32, 5 << 3, 0xAA, 0x55, 0xF0, 0x0F, 10, 0, 0, 32, 5 << 3, 0xFF, 0xFF, 0xFF, 0xFF, 10, 0, 0, 32, 5 << 3})
	f.Add([]byte{10, 0, 0, 64, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // across the wrap at the start
	f.Add([]byte{10, 0, 0, 0, 0, 10, 0, 0, 4, 1, 0xF0})                            // an empty block; two blocks
	f.Add([]byte{63, 0, 0, 0, 2, 63, 0, 0, 0, 2, 63, 0, 0, 0, 2, 63, 0, 0, 16, 9, 0xFF, 0xFF})
	// Packet 15 is missing from the first 26 sent; it ages past the loss
	// guard while the next report only repeats the highest packet received,
	// with four beyond it not yet arrived.
	f.Add([]byte{63, 0, 0, 0, 2, 40, 0, 0, 26, 1 << 3, 0xFF, 0x7F, 0xFF, 0x03,
		63, 0, 0, 0, 2, 63, 0, 0, 0, 2,
		0, 0xFF, 0xFC, 30, 4 | 1<<3, 0xFF, 0x7F, 0xFF, 0x03})

	f.Fuzz(func(t *testing.T, script []byte) {
		script = script[:min(len(script), 1<<10)]
		a, b := newScreamTwin(), newScreamTwin()
		var end uint16 // the previous report's end
		for step := 0; len(script) >= 5; step++ {
			op := script[:5]
			script = script[5:]
			now := a.s.Now() + time.Duration(op[0]%64)*time.Millisecond
			a.s.RunUntil(now)
			b.s.RunUntil(now)
			// op[1:3]: the window's end, back from the newest packet sent
			// (op[4] bit 2: from the previous report's end); op[3]: its
			// length (0: an empty block); op[4] bit 0: a second block over
			// the older half, bit 1: no report at all, bits 3–7: the spread
			// of the arrival times.
			if op[4]&2 != 0 {
				continue
			}
			if op[4]&4 == 0 {
				end = a.newest
			}
			end -= binary.BigEndian.Uint16(op[1:3])
			n := int(op[3])
			bits := script[:min((n+7)/8, len(script))]
			script = script[len(bits):]
			words := make([]uint16, n)
			for i := range words {
				if i/8 < len(bits) && bits[i/8]>>(i%8)&1 != 0 {
					words[i] = receivedWord(time.Duration((n-i)*int(op[4]>>3)) * time.Millisecond)
				}
			}
			blocks := []ccfbBlock{{begin: end - uint16(n) + 1, words: words}}
			if op[4]&1 != 0 {
				blocks = append(blocks, ccfbBlock{begin: blocks[0].begin, words: words[:n/2]})
			}
			buf := ccfbDatagram(now, blocks...)
			if va, vb := a.snd.OnDatagram(buf, now), fullTranslation(b.snd, buf, now); va != vb {
				t.Fatalf("step %d: verdicts %v and %v", step, va, vb)
			}
			if sa, sb := stateOf(a.snd, now), stateOf(b.snd, now); sa != sb {
				t.Fatalf("step %d at %v: filtered %+v, full %+v", step, now, sa, sb)
			}
			if !slices.Equal(a.tr.Events(), b.tr.Events()) {
				t.Fatalf("step %d: the controllers traced different decisions", step)
			}
		}
	})
}

// ccfbLoad is a SCReAM sender in its campaign steady state: media crosses a
// lossless 20 ms pipe into an RFC 8888 generator with the campaign's
// 256-packet window, and a report returns the moment it is built, every
// 10 ms.
type ccfbLoad struct {
	s          *sim.Simulator
	snd        *Sender
	gen        *rtp.CCFBGenerator
	pipe       [1 << 12]pipeArrival // a ring of packets sent, not yet arrived
	head, tail int
	wire       []byte // the report, rewritten in place as a datagram slot is
}

type pipeArrival struct {
	seq uint16
	at  time.Duration
}

func newCCFBLoad() *ccfbLoad {
	vcfg := video.DefaultSenderConfig()
	l := &ccfbLoad{s: sim.New(1), gen: rtp.NewCCFBGenerator(receiverSSRC, vcfg.SSRC, 256)}
	l.snd = NewSender(l.s, SenderConfig{Video: vcfg, CC: CCSCReAM})
	l.snd.Media = func(p *rtp.Packet, _ int) {
		l.pipe[l.tail%len(l.pipe)] = pipeArrival{p.Header.SequenceNumber, l.s.Now() + pipeDelay}
		l.tail++
	}
	l.snd.Start()
	for l.s.Now() < 30*time.Second {
		if buf, now := l.next(); buf != nil {
			l.snd.OnDatagram(buf, now)
		}
	}
	return l
}

// next runs the sender to the next reporting instant and returns the
// report then due (nil before anything arrived).
func (l *ccfbLoad) next() ([]byte, time.Duration) {
	now := l.s.Now() + ccfbInterval
	l.s.RunUntil(now)
	for ; l.head < l.tail && l.pipe[l.head%len(l.pipe)].at <= now; l.head++ {
		l.gen.Record(l.pipe[l.head%len(l.pipe)].seq, l.pipe[l.head%len(l.pipe)].at)
	}
	var ok bool
	if l.wire, ok = l.gen.AppendReport(l.wire[:0], now); !ok {
		return nil, now
	}
	return l.wire, now
}

// BenchmarkSenderOnCCFB is one steady-state RFC 8888 report into a SCReAM
// sender: 256 metric blocks, of which about a tenth are new — parse, leave
// the repeats out, run the controller, kick the pacer. acks/op is what
// reached the controller.
func BenchmarkSenderOnCCFB(b *testing.B) {
	l := newCCFBLoad()
	acks := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		buf, now := l.next()
		b.StartTimer()
		if l.snd.OnDatagram(buf, now) != Control {
			b.Fatal("report rejected")
		}
		acks += len(l.snd.acks)
	}
	b.ReportMetric(float64(acks)/float64(b.N), "acks/op")
}

// TestSenderOnCCFBAllocations pins BenchmarkSenderOnCCFB's operation at zero
// allocations over 200 consecutive reports, and checks the load is the one
// it claims: most of each report's 256 metric blocks left out.
func TestSenderOnCCFBAllocations(t *testing.T) {
	l := newCCFBLoad()
	acks := 0
	for i := 0; i < 200; i++ {
		buf, now := l.next()
		// AllocsPerRun calls its function once unmeasured before measuring;
		// a report can be delivered only once, so that call only arms it.
		armed := false
		n := testing.AllocsPerRun(1, func() {
			if armed && l.snd.OnDatagram(buf, now) != Control {
				t.Fatal("report rejected")
			}
			armed = true
		})
		if n != 0 {
			t.Fatalf("report %d: %.0f allocations in Sender.OnDatagram, want 0", i, n)
		}
		acks += len(l.snd.acks)
	}
	mean := float64(acks) / 200
	t.Logf("%.1f of 256 acks per report reached the controller", mean)
	if mean < 10 || mean > 64 {
		t.Errorf("%.1f of 256 acks per report reached the controller, want a steady state's few dozen", mean)
	}
}
