package endpoint

import (
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"rpivideo/internal/cc"
	"rpivideo/internal/obs"
	"rpivideo/internal/repair"
	"rpivideo/internal/rtp"
	"rpivideo/internal/sim"
	"rpivideo/internal/video"
)

// pair is a GCC single-path sender and receiver on one clock, joined by a
// lossless 20 ms pipe each way: media as typed packets (or, with wire set, as
// marshalled bytes), feedback as bytes — core.Run's wiring without the link
// model.
type pair struct {
	s   *sim.Simulator
	snd *Sender
	rcv *Receiver
	// lastFeedback keeps the newest congestion feedback packet the receiver
	// sent, for replay against the sender.
	lastFeedback []byte
}

const pipeDelay = 20 * time.Millisecond

func newPair(wire bool) *pair {
	p := &pair{s: sim.New(1)}
	vcfg := video.DefaultSenderConfig()
	rcfg := repair.DefaultConfig()
	pcfg := video.DefaultPlayerConfig()
	pcfg.KeyframeRecovery = true
	p.snd = NewSender(p.s, SenderConfig{Video: vcfg, CC: CCGCC, Repair: rcfg})
	p.rcv = NewReceiver(p.s, ReceiverConfig{
		SSRC: vcfg.SSRC, PayloadType: vcfg.PayloadType, Player: pcfg,
		FrameEncoding: p.snd.Video.FrameEncoding, TWCC: true, Repair: rcfg,
	})
	up := func(pkt *rtp.Packet, _ int) {
		p.s.After(pipeDelay, func() { p.rcv.OnMedia(pkt, p.s.Now()) })
	}
	upBytes := func(buf []byte) {
		p.s.After(pipeDelay, func() { p.rcv.OnDatagram(buf, p.s.Now()) })
	}
	p.snd.Media, p.snd.RTX = up, up
	p.snd.Control = func(d *rtp.Datagram) {
		p.s.After(pipeDelay, func() {
			p.rcv.OnDatagram(d.B, p.s.Now())
			d.Release()
		})
	}
	if wire {
		p.snd.Media, p.snd.RTX = Marshalled(upBytes), Marshalled(upBytes)
	}
	p.rcv.Feedback = func(d *rtp.Datagram, _ int) {
		if _, format, _ := rtp.PeekRTCP(d.B); format == rtp.FmtTWCC {
			p.lastFeedback = append(p.lastFeedback[:0], d.B...)
		}
		p.s.After(pipeDelay, func() {
			p.snd.OnDatagram(d.B, p.s.Now())
			d.Release()
		})
	}
	p.rcv.StartRepair()
	p.snd.StartReports()
	p.rcv.StartReports()
	p.snd.Start()
	return p
}

// TestPairStreams drives the pair over both transports: frames must play,
// GCC must leave its start rate, and the RR/SR exchange must yield RTT
// samples of about two pipe delays.
func TestPairStreams(t *testing.T) {
	for _, wire := range []bool{false, true} {
		p := newPair(wire)
		var rtts []time.Duration
		p.snd.OnRTT = func(rtt time.Duration) { rtts = append(rtts, rtt) }
		start := p.snd.TargetBitrate(0)
		p.s.RunUntil(5 * time.Second)
		if played := p.rcv.Player.FramesPlayed; played < 100 {
			t.Errorf("wire=%v: %d frames played in 5 s, want ≥ 100", wire, played)
		}
		if end := p.snd.TargetBitrate(p.s.Now()); end <= start {
			t.Errorf("wire=%v: GCC target %.1f Mbps never left its start %.1f Mbps", wire, end/1e6, start/1e6)
		}
		if len(rtts) == 0 {
			t.Fatalf("wire=%v: no RTT sample from the SR/RR exchange", wire)
		}
		for _, rtt := range rtts {
			if d := rtt - 2*pipeDelay; d < -time.Millisecond || d > time.Millisecond {
				t.Errorf("wire=%v: RTT sample %v, want %v", wire, rtt, 2*pipeDelay)
			}
		}
	}
}

// TestRepairAndKeyframeOverTheWire drops a burst of marshalled media: the
// receiver must NACK, the sender retransmit and the player count repaired
// packets; and a PLI must restart the GOP. Everything crosses as bytes.
func TestRepairAndKeyframeOverTheWire(t *testing.T) {
	p := newPair(true)
	deliver := p.snd.Media
	dropped := 0
	p.snd.Media = func(pkt *rtp.Packet, size int) {
		if now := p.s.Now(); now > 2*time.Second && now < 2*time.Second+15*time.Millisecond {
			dropped++
			return
		}
		deliver(pkt, size)
	}
	p.s.RunUntil(4 * time.Second)
	if dropped == 0 || p.rcv.NacksSent == 0 || p.snd.RtxBytes == 0 || p.rcv.Player.PacketsRepaired == 0 {
		t.Fatalf("dropped %d, NACKs %d, RTX bytes %d, packets repaired %d: the repair loop must close",
			dropped, p.rcv.NacksSent, p.snd.RtxBytes, p.rcv.Player.PacketsRepaired)
	}
	pli, err := (&rtp.PLI{SenderSSRC: receiverSSRC, MediaSSRC: video.DefaultSenderConfig().SSRC}).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := p.snd.OnDatagram(pli, p.s.Now()); v != Control {
		t.Fatalf("PLI verdict %v, want Control", v)
	}
	keyframes := 0
	p.snd.Media = func(pkt *rtp.Packet, _ int) {
		if m, err := rtp.ParsePacketMeta(pkt.Payload); err == nil && m.Keyframe && m.Index == 0 {
			keyframes++
		}
	}
	p.s.RunUntil(p.s.Now() + 100*time.Millisecond)
	if keyframes == 0 {
		t.Error("no keyframe within 100 ms of a PLI")
	}
}

// TestDatagramDemux pins what each end rejects at the wire edge.
func TestDatagramDemux(t *testing.T) {
	p := newPair(true)
	var media []byte
	send := p.snd.Media
	p.snd.Media = func(pkt *rtp.Packet, size int) {
		media, _ = pkt.Marshal()
		send(pkt, size)
	}
	p.s.RunUntil(time.Second)
	fb := p.lastFeedback
	if media == nil || fb == nil {
		t.Fatal("no media or no feedback after 1 s")
	}
	mutate := func(buf []byte, at int, v byte) []byte {
		out := append([]byte(nil), buf...)
		out[at] = v
		return out
	}
	now := p.s.Now()
	for name, c := range map[string]struct {
		got  Verdict
		want Verdict
	}{
		"receiver: media":             {p.rcv.OnDatagram(media, now), Fresh},
		"receiver: truncated media":   {p.rcv.OnDatagram(media[:20], now), Rejected},
		"receiver: foreign SSRC":      {p.rcv.OnDatagram(mutate(media, 11, 0xFF), now), Rejected},
		"receiver: foreign payload":   {p.rcv.OnDatagram(mutate(media, 1, 111), now), Rejected},
		"receiver: frame from future": {p.rcv.OnDatagram(mutate(media, 20, 0x7F), now), Rejected},
		"receiver: feedback":          {p.rcv.OnDatagram(fb, now), Rejected},
		"receiver: empty":             {p.rcv.OnDatagram(nil, now), Rejected},
		"sender: feedback":            {p.snd.OnDatagram(fb, now), Control},
		"sender: truncated feedback":  {p.snd.OnDatagram(fb[:len(fb)-4], now), Rejected},
		"sender: other cc's format":   {p.snd.OnDatagram(mutate(fb, 0, 0x80|rtp.FmtCCFB), now), Rejected},
		"sender: unknown rtcp type":   {p.snd.OnDatagram(mutate(fb, 1, 207), now), Rejected},
		"sender: media":               {p.snd.OnDatagram(media, now), Rejected},
		"sender: empty":               {p.snd.OnDatagram(nil, now), Rejected},
	} {
		if c.got != c.want {
			t.Errorf("%s: verdict %d, want %d", name, c.got, c.want)
		}
	}
}

func TestParseCC(t *testing.T) {
	for _, k := range []CC{CCStatic, CCGCC, CCSCReAM} {
		if got, err := ParseCC(k.String()); err != nil || got != k {
			t.Errorf("ParseCC(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseCC("bbr"); err == nil {
		t.Error("ParseCC accepted an unknown controller")
	}
}

// TestReceiverLatchesPeer runs ServeReceiver on a loopback socket with two
// senders: the first to send media becomes the peer, and a later stray that
// sends perfectly valid media of the same stream must neither receive the
// feedback nor redirect it. A receiver answering the last-seen source (what
// rprecv did) fails both checks.
func TestReceiverLatchesPeer(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer conn.Close()
	dial := func() *net.UDPConn {
		c, err := net.DialUDP("udp", nil, conn.LocalAddr().(*net.UDPAddr))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	peer, stray := dial(), dial()
	defer peer.Close()
	defer stray.Close()

	vcfg := video.DefaultSenderConfig()
	s := sim.New(1)
	rcv := NewReceiver(s, ReceiverConfig{SSRC: vcfg.SSRC, PayloadType: vcfg.PayloadType, Player: video.DefaultPlayerConfig(), TWCC: true})
	rcv.StartReports()
	served := make(chan error, 1)
	go func() { served <- ServeReceiver(s, rcv, conn, 0) }()

	// One frame of valid media, sent packet by packet from either source.
	pkts := rtp.NewPacketizer(vcfg.SSRC, vcfg.PayloadType, vcfg.MTU).Packetize(rtp.FrameInfo{Size: 6000})
	sendFrom := func(c *net.UDPConn, pkt *rtp.Packet) {
		buf, err := pkt.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	awaitFeedback := func(c *net.UDPConn, wait time.Duration) bool {
		buf := make([]byte, 2048)
		_ = c.SetReadDeadline(time.Now().Add(wait))
		for {
			n, err := c.Read(buf)
			if err != nil {
				return false
			}
			if _, format, ok := rtp.PeekRTCP(buf[:n]); ok && format == rtp.FmtTWCC {
				return true
			}
		}
	}
	sendFrom(peer, pkts[0])
	if !awaitFeedback(peer, 5*time.Second) {
		t.Fatal("the first sender never got feedback")
	}
	sendFrom(stray, pkts[1])
	sendFrom(peer, pkts[2])
	if !awaitFeedback(peer, 5*time.Second) {
		t.Error("feedback stopped reaching the peer after a stray packet")
	}
	if awaitFeedback(stray, 300*time.Millisecond) {
		t.Error("a stray source received the feedback stream")
	}
	conn.Close()
	if err := <-served; err == nil {
		t.Error("ServeReceiver returned nil after its socket was closed")
	}
	if got := rcv.Player.PacketsReceived(); got != 2 {
		t.Errorf("%d packets reached the player, want the peer's 2 (the stray's was ignored)", got)
	}
}

// receiverLoad feeds a single-path GCC receive chain an 8 Mbps stream, one
// frame of ≈28 packets per step at 1 ms spacing, with the chain's tickers
// and the player running: the steady state of core.Run's media path.
type receiverLoad struct {
	s       *sim.Simulator
	onMedia func(p *rtp.Packet, at time.Duration)
	pk      *rtp.Packetizer
	frame   uint32
	// reports counts the RTCP packets the chain sent.
	reports int
}

// chainBuilder builds a receive chain on s that counts each RTCP packet it
// sends in *reports, and returns its media input.
type chainBuilder func(s *sim.Simulator, vcfg video.SenderConfig, reports *int) func(*rtp.Packet, time.Duration)

// warmReceiver runs the load for 10 s against the chain build returns.
func warmReceiver(build chainBuilder) *receiverLoad {
	vcfg := video.DefaultSenderConfig()
	l := &receiverLoad{s: sim.New(1), pk: rtp.NewPacketizer(vcfg.SSRC, vcfg.PayloadType, vcfg.MTU)}
	l.onMedia = build(l.s, vcfg, &l.reports)
	for i := 0; i < 300; i++ {
		l.step()
	}
	return l
}

func (l *receiverLoad) step() int {
	t0 := time.Duration(l.frame) * time.Second / 30
	pkts := l.pk.Packetize(rtp.FrameInfo{Num: l.frame, EncodeTime: t0, Size: 8_000_000 / 8 / 30, RTPTime: l.frame * 3000})
	for i, p := range pkts {
		at := t0 + time.Duration(i)*time.Millisecond
		l.s.RunUntil(at)
		l.onMedia(p, at)
	}
	l.frame++
	return len(pkts)
}

// endpointChain is the chain under test: a Receiver, whose feedback sink
// releases each datagram as a link exit does.
func endpointChain(s *sim.Simulator, vcfg video.SenderConfig, reports *int) func(*rtp.Packet, time.Duration) {
	rcv := NewReceiver(s, ReceiverConfig{SSRC: vcfg.SSRC, PayloadType: vcfg.PayloadType, Player: video.DefaultPlayerConfig(), TWCC: true})
	rcv.Feedback = func(d *rtp.Datagram, _ int) {
		*reports++
		d.Release()
	}
	rcv.StartReports()
	return func(p *rtp.Packet, at time.Duration) { rcv.OnMedia(p, at) }
}

// closureChain is the oracle: the single-path GCC receive side as the
// closures of core's runVideo wired it before this package existed — the same
// components, called from the same places, with a link-shaped sink. Its
// reports take the codec's recycled shape: each is appended into a datagram
// slot the sink releases, the receiver report from one struct kept across
// reports.
func closureChain(s *sim.Simulator, vcfg video.SenderConfig, reports *int) func(*rtp.Packet, time.Duration) {
	var slots rtp.DatagramPool
	send := func(meta any, size int) {
		*reports++
		meta.(*rtp.Datagram).Release()
	}
	pl := video.NewPlayer(s, video.DefaultPlayerConfig(), video.DefaultSSIMModel(), nil)
	recStats := rtp.NewReceptionStats(vcfg.SSRC, rtp.VideoClockRate)
	rr := &rtp.ReceiverReport{SSRC: 1, Blocks: make([]rtp.ReportBlock, 1)}
	s.Every(1500*time.Millisecond, time.Second, func() {
		rr.Blocks[0] = recStats.Block()
		d := slots.Get()
		var err error
		if d.B, err = rr.AppendTo(d.B); err == nil {
			send(d, len(d.B))
		}
	})
	twccRec := rtp.NewTWCCRecorder(1, vcfg.SSRC)
	s.Every(twccInterval, twccInterval, func() {
		fb := twccRec.Flush()
		if fb == nil {
			return
		}
		d := slots.Get()
		var err error
		if d.B, err = fb.AppendTo(d.B); err == nil {
			send(d, len(d.B))
		}
	})
	return func(p *rtp.Packet, at time.Duration) {
		recStats.Record(p.Header.SequenceNumber, p.Header.Timestamp, at)
		pl.OnPacket(p, at)
		if tseq, ok := p.Header.TransportSeq(); ok {
			twccRec.Record(tseq, at)
		}
	}
}

// BenchmarkReceiverOnMedia is one media packet down the receive chain
// (reception statistics, player ingest, TWCC record), the chain's tickers,
// the player's pump and the load's packetizer included.
func BenchmarkReceiverOnMedia(b *testing.B) {
	l := warmReceiver(endpointChain)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; {
		n += l.step()
	}
}

// TestReceiverAllocationsMatchClosures pins a frame through the Receiver at
// exactly what it cost through the closures: the frame's reassembly state,
// the TWCC and receiver reports and the growth of the player's outputs are
// the components' own and common to both; the chain around them (dispatch,
// nil-checked stages, the verdict) must add nothing. With recycled packets
// and datagram slots both cost nothing in steady state, so the load must be
// seen to run: both chains send the same reports, and some.
func TestReceiverAllocationsMatchClosures(t *testing.T) {
	got, want := warmReceiver(endpointChain), warmReceiver(closureChain)
	g := testing.AllocsPerRun(300, func() { got.step() })
	w := testing.AllocsPerRun(300, func() { want.step() })
	if g != w || got.reports == 0 || got.reports != want.reports {
		t.Errorf("%.2f allocations per frame and %d reports through the Receiver, %.2f and %d through the closures it replaced",
			g, got.reports, w, want.reports)
	}
}

// BenchmarkSenderOnFeedback is one TWCC report into a GCC sender in steady
// state: parse, translate to acks against the sent-packet tables, run the
// controller, kick the pacer.
func BenchmarkSenderOnFeedback(b *testing.B) {
	p := newPair(false)
	p.s.RunUntil(10 * time.Second)
	fb := p.lastFeedback
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.snd.OnDatagram(fb, p.s.Now()) != Control {
			b.Fatal("feedback rejected")
		}
	}
}

// TestSenderFeedbackAllocationsMatchClosure pins the feedback consumer
// against the closure it came from. The oracle below is that closure: it
// parses into a fresh rtp.TWCC — two allocations per report, the status
// symbols and the arrivals — and translates into an ack slice reused across
// reports. The Sender parses into one rtp.TWCC it keeps, and GCC's receive
// window no longer regrows, so a report costs it nothing: 0, and no more
// than the oracle. If Sender stopped reusing either scratch it would fail
// here.
func TestSenderFeedbackAllocationsMatchClosure(t *testing.T) {
	p := newPair(false)
	p.s.RunUntil(10 * time.Second)
	fb, now := p.lastFeedback, p.s.Now()
	got := testing.AllocsPerRun(200, func() { p.snd.OnDatagram(fb, now) })

	var ackScratch []cc.Ack
	snd, ctrl := p.snd.Video, p.snd.Ctrl
	closure := func(buf []byte, at time.Duration) {
		var fb rtp.TWCC
		if err := fb.Unmarshal(buf); err != nil {
			return
		}
		acks := ackScratch[:0]
		for i, pk := range fb.Packets {
			tseq := fb.BaseSeq + uint16(i)
			a := cc.Ack{Received: pk.Received, ArrivalTime: pk.At}
			if rec, ok := snd.LookupTransport(tseq); ok {
				a.Seq, a.Size, a.SendTime = rec.Seq, rec.Size, rec.SendTime
			}
			acks = append(acks, a)
		}
		ackScratch = acks
		ctrl.OnFeedback(at, acks)
		snd.Kick()
	}
	want := testing.AllocsPerRun(200, func() { closure(fb, now) })
	if got != 0 || got > want {
		t.Errorf("%.2f allocations per TWCC report through Sender.OnDatagram, want 0; %.2f through the closure it replaced", got, want)
	}
}

// TestTWCCLoopAllocations pins the whole transport-wide feedback loop in
// steady state — a reporting interval's arrivals recorded, flushed into the
// recorder's packet, appended into a recycled datagram slot, parsed into the
// sender's packet, translated to acks against the sent-packet table and run
// through GCC, the slot released — at zero allocations (outside the
// rtppoison build, whose released slots are never reused).
func TestTWCCLoopAllocations(t *testing.T) {
	p := newPair(false)
	p.s.RunUntil(10 * time.Second)
	rec := rtp.NewTWCCRecorder(receiverSSRC, video.DefaultSenderConfig().SSRC)
	const reports, perReport = 240, 26
	tseq := uint16(p.snd.Video.PacketsSent - reports*perReport) // packets the sender still knows
	if _, ok := p.snd.Video.LookupTransport(tseq); !ok {
		t.Fatalf("transport seq %d is not in the sender's table", tseq)
	}
	now := p.s.Now()
	var slots rtp.DatagramPool
	report := func() {
		for k := 0; k < perReport; k++ {
			now += 400 * time.Microsecond
			if tseq%29 != 0 {
				rec.Record(tseq, now)
			}
			tseq++
		}
		d := slots.Get()
		var err error
		if d.B, err = rec.Flush().AppendTo(d.B); err != nil {
			t.Fatal(err)
		}
		if p.snd.OnDatagram(d.B, now) != Control {
			t.Fatal("feedback rejected")
		}
		d.Release()
	}
	for i := 0; i < 60; i++ {
		report()
	}
	if n := testing.AllocsPerRun(150, report); n != 0 && slotsRecycle() {
		t.Errorf("%.2f allocations per TWCC report around the loop, want 0", n)
	}
}

// TestSenderTWCCReuseAfterRejection: the sender parses every report into one
// rtp.TWCC. A long report, then a datagram rejected halfway through its
// deltas, then a short report: the controller must see exactly the short
// report's packets, none left over from either predecessor.
func TestSenderTWCCReuseAfterRejection(t *testing.T) {
	tr := obs.New(1 << 10)
	vcfg := video.DefaultSenderConfig()
	snd := NewSender(sim.New(1), SenderConfig{Video: vcfg, CC: CCGCC, Trace: tr})
	twcc := func(base uint16, n int) []byte {
		fb := rtp.TWCC{SenderSSRC: receiverSSRC, MediaSSRC: vcfg.SSRC, BaseSeq: base}
		for i := 0; i < n; i++ {
			fb.Packets = append(fb.Packets, rtp.Arrival{Received: i%4 != 3, At: time.Second + time.Duration(i)*time.Millisecond})
		}
		buf, err := fb.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	long, short := twcc(0, 200), twcc(200, 3)
	cut := append([]byte(nil), long[:len(long)-40]...)
	cut[3] = byte(len(cut)/4 - 1) // a consistent length field, so the parser reads into the deltas
	for _, c := range []struct {
		buf  []byte
		want Verdict
		acks int64
	}{{long, Control, 200}, {cut, Rejected, 0}, {short, Control, 3}} {
		before := tr.Len()
		if got := snd.OnDatagram(c.buf, 2*time.Second); got != c.want {
			t.Fatalf("verdict %v, want %v", got, c.want)
		}
		evs := tr.Events()[before:]
		if c.want == Rejected {
			if len(evs) != 0 {
				t.Fatalf("a rejected datagram reached the controller: %+v", evs)
			}
			continue
		}
		if len(evs) != 1 || evs[0].Kind != obs.KindCC || evs[0].Aux != c.acks {
			t.Fatalf("controller saw %+v, want one decision over %d acks", evs, c.acks)
		}
	}
}

// FuzzEndpointDatagram throws arbitrary datagrams at both wire edges of a
// pair that has been streaming for a second (so caches, tables and the
// player hold state for a forged packet to hit), then lets the clock run on.
// Neither end may panic or hang; a Rejected datagram must leave every
// counter where it was; and no datagram may cost more memory than its size
// and the 16-bit sequence space allow — a length field must never size an
// allocation.
func FuzzEndpointDatagram(f *testing.F) {
	seedPair := newPair(true)
	seedPair.snd.Media = Marshalled(func(buf []byte) {
		f.Add(buf, true)
		// The same packet some 20 000 sequence numbers ahead of where the
		// fuzzed pair will be: the loss detector's costliest input.
		far := append([]byte(nil), buf...)
		binary.BigEndian.PutUint16(far[2:], binary.BigEndian.Uint16(far[2:])+22000)
		f.Add(far, true)
	})
	seedPair.rcv.Feedback = func(d *rtp.Datagram, _ int) {
		f.Add(append([]byte(nil), d.B...), false)
		d.Release()
	}
	seedPair.s.RunUntil(150 * time.Millisecond)
	f.Add([]byte{0x81, 205, 0, 3, 0, 0, 0, 1, 0, 0, 0x12, 0x34, 0, 5, 0xFF, 0xFF}, false) // NACK for 17 packets
	f.Add([]byte{0x81, 206, 0, 2, 0, 0, 0, 1, 0, 0, 0x12, 0x34}, false)                   // PLI

	f.Fuzz(func(t *testing.T, data []byte, toReceiver bool) {
		p := newPair(true)
		p.s.RunUntil(time.Second)
		type counters struct {
			arrivals, nacks, kfRequests, rtxBytes, sent int
			target                                      float64
		}
		read := func() counters {
			return counters{p.rcv.Player.PacketsReceived(), p.rcv.NacksSent, p.rcv.Player.KeyframeRequests,
				p.snd.RtxBytes, p.snd.Video.PacketsSent, p.snd.TargetBitrate(p.s.Now())}
		}
		before := read()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var v Verdict
		if toReceiver {
			v = p.rcv.OnDatagram(data, p.s.Now())
		} else {
			v = p.snd.OnDatagram(data, p.s.Now())
		}
		runtime.ReadMemStats(&m1)
		if v == Rejected && read() != before {
			t.Fatalf("a rejected datagram moved the counters: %+v → %+v", before, read())
		}
		// The bound is the costliest honest path: a media packet that skips
		// more sequence numbers than the loss detector tracks opens
		// MaxPending (8 192) records, about 1.2 MiB with the table and the
		// order slice they grow, however far it jumps; and a NACK may name 17 packets per 4 bytes, each
		// retransmitted. Nothing else scales past the datagram, and nothing
		// at all with a length field inside it.
		if grew, bound := m1.TotalAlloc-m0.TotalAlloc, uint64(2<<20+2048*len(data)); grew > bound {
			t.Fatalf("%d bytes allocated for a %d-byte datagram (bound %d)", grew, len(data), bound)
		}
		p.s.RunUntil(p.s.Now() + 500*time.Millisecond)
	})
}
