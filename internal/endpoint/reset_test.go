package endpoint

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"rpivideo/internal/cc"
	"rpivideo/internal/cell"
	"rpivideo/internal/fault"
	"rpivideo/internal/flight"
	"rpivideo/internal/gcc"
	"rpivideo/internal/link"
	"rpivideo/internal/metrics"
	"rpivideo/internal/obs"
	"rpivideo/internal/repair"
	"rpivideo/internal/ring"
	"rpivideo/internal/rtp"
	"rpivideo/internal/scream"
	"rpivideo/internal/sim"
	"rpivideo/internal/video"
)

// resetCase is one type whose values a run-buffer set keeps from run to
// run. fresh builds a value on clock s as its constructor does; dirty uses
// it on another clock so that it grows its storage and is left with state
// in flight — queued, pending, unacknowledged; reset is its Reset onto s;
// use drives it through the case's fixed schedule on s and returns
// everything the schedule observed of it.
type resetCase struct {
	name  string
	fresh func(s *sim.Simulator) any
	dirty func(s *sim.Simulator, v any)
	reset func(s *sim.Simulator, v any)
	use   func(s *sim.Simulator, v any) any
}

// TestResetAfterUseMatchesNew: for every type a run-buffer set keeps, a
// value that was used — its storage grown, state left in flight — and then
// Reset does under the same schedule exactly what a new value does, and on
// the storage it kept: the schedule allocates less than on the new value.
// Outside the rtppoison build, that is; there reclaimed packet and
// datagram slots are poisoned and dropped, and the storage check is off.
func TestResetAfterUseMatchesNew(t *testing.T) {
	var probe rtp.DatagramPool
	d := probe.Get()
	d.Release()
	recycled := probe.Get() == d
	for _, c := range resetCases() {
		t.Run(c.name, func(t *testing.T) {
			s := sim.New(7)
			newBytes := allocated(func() { c.use(s, c.fresh(s)) })
			s = sim.New(7)
			want := c.use(s, c.fresh(s))

			s = sim.New(3)
			v := c.fresh(s)
			c.dirty(s, v)
			s = sim.New(7)
			var got any
			resetBytes := allocated(func() {
				c.reset(s, v)
				got = c.use(s, v)
			})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("after a use and Reset:\n%+v\na new value:\n%+v", got, want)
			}
			if recycled && resetBytes >= newBytes {
				t.Errorf("after a use and Reset the schedule allocated %d bytes, on a new value %d: the grown storage was not kept", resetBytes, newBytes)
			}
		})
	}
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func resetCases() []resetCase {
	return []resetCase{
		{
			// A holder resets a queue with Truncate(0).
			name:  "ring.Queue",
			fresh: func(*sim.Simulator) any { return new(ring.Queue[*int]) },
			dirty: func(_ *sim.Simulator, v any) {
				q := v.(*ring.Queue[*int])
				for i := 0; i < 100; i++ {
					q.Push(&i)
				}
				q.Pop()
			},
			reset: func(_ *sim.Simulator, v any) { v.(*ring.Queue[*int]).Truncate(0) },
			use: func(_ *sim.Simulator, v any) any {
				q := v.(*ring.Queue[*int])
				var out []any
				for i := 0; i < 200; i++ {
					q.Push(nil)
					if i%3 == 0 {
						out = append(out, q.Pop())
					}
				}
				return append(out, q.Len(), q.At(0), q.At(q.Len()-1))
			},
		},
		{
			// A holder resets a table with Clear.
			name: "ring.SeqTable",
			fresh: func(*sim.Simulator) any {
				t := ring.MakeSeqTable[int](64)
				return &t
			},
			dirty: func(_ *sim.Simulator, v any) {
				t := v.(*ring.SeqTable[int])
				for k := 0; k < 3000; k++ {
					t.Put(uint16(k), -k)
				}
			},
			reset: func(_ *sim.Simulator, v any) { v.(*ring.SeqTable[int]).Clear() },
			use: func(_ *sim.Simulator, v any) any {
				t := v.(*ring.SeqTable[int])
				rng := rand.New(rand.NewSource(1))
				var out []any
				for op := 0; op < 3000; op++ {
					k := uint16(rng.Intn(4096))
					switch rng.Intn(3) {
					case 0:
						out = append(out, fmt.Sprint(t.Put(k, op)))
					case 1:
						out = append(out, fmt.Sprint(t.Delete(k)))
					default:
						if p := t.Get(k); p != nil {
							out = append(out, *p)
						}
					}
				}
				return append(out, t.Len())
			},
		},
		{
			name:  "cc.SendQueue",
			fresh: func(*sim.Simulator) any { return new(cc.SendQueue) },
			dirty: func(_ *sim.Simulator, v any) {
				q := v.(*cc.SendQueue)
				q.Discard = func(cc.Item) { panic("a discard of the queue's last use") }
				for i := 0; i < 1000; i++ {
					q.Push(cc.Item{Data: i, Size: 1200, Enqueued: time.Duration(i)})
				}
				q.Pop()
			},
			reset: func(_ *sim.Simulator, v any) { v.(*cc.SendQueue).Reset() },
			use: func(_ *sim.Simulator, v any) any {
				q := v.(*cc.SendQueue)
				var out []any
				q.Discard = func(it cc.Item) { out = append(out, "discard", it) }
				for i := 0; i < 300; i++ {
					q.Push(cc.Item{Data: -i, Size: 100 + i, Enqueued: time.Duration(i) * time.Millisecond})
					if i%4 == 0 {
						it, ok := q.Pop()
						out = append(out, it, ok)
					}
				}
				out = append(out, q.Len(), q.Delay(time.Second))
				q.Clear()
				return append(out, q.Len())
			},
		},
		{
			name:  "rtp.Packetizer",
			fresh: func(*sim.Simulator) any { return rtp.NewPacketizer(1, 96, 1200) },
			dirty: func(_ *sim.Simulator, v any) {
				p := v.(*rtp.Packetizer)
				for n := uint32(0); n < 40; n++ {
					for i, pkt := range p.Packetize(rtp.FrameInfo{Num: n, Size: 9000}) {
						if n%4 != 0 || i != 0 {
							pkt.Release() // the rest are held past the Reset
						}
					}
				}
			},
			reset: func(_ *sim.Simulator, v any) { v.(*rtp.Packetizer).Reset(1, 96, 1200) },
			use: func(_ *sim.Simulator, v any) any {
				p := v.(*rtp.Packetizer)
				var out []any
				var held []*rtp.Packet
				for n := uint32(0); n < 40; n++ {
					for i, pkt := range p.Packetize(rtp.FrameInfo{Num: n, Size: 7000, EncodeTime: time.Duration(n), RTPTime: 3000 * n}) {
						b, err := pkt.Marshal()
						out = append(out, string(b), err, pkt.VirtualPayloadLen)
						if i%2 == 0 {
							held = append(held, pkt)
							continue
						}
						pkt.Release()
					}
				}
				st := p.PoolStats()
				for _, pkt := range held {
					pkt.Release()
				}
				return append(out, st.Live, st.PeakLive, st.Refs, p.PoolStats().Live)
			},
		},
		{
			name:  "rtp.Depacketizer",
			fresh: func(*sim.Simulator) any { return rtp.NewDepacketizer() },
			dirty: func(_ *sim.Simulator, v any) {
				d := v.(*rtp.Depacketizer)
				for n := uint32(0); n < 300; n += 2 { // every frame left pending
					d.Push(mediaFrame(n, 3)[0], 0)
				}
			},
			reset: func(_ *sim.Simulator, v any) { v.(*rtp.Depacketizer).Reset() },
			use: func(_ *sim.Simulator, v any) any {
				d := v.(*rtp.Depacketizer)
				var out []any
				for n := uint32(0); n < 300; n++ {
					for i, pkt := range mediaFrame(n, 3) {
						if n%5 == 0 && i == 1 {
							continue
						}
						fs, err := d.Push(pkt, time.Duration(n)*time.Millisecond)
						out = append(out, fs.Received, fs.Complete(), fs.FirstArrival, err)
					}
					if n >= 3 {
						d.Delete(n - 3)
					}
				}
				for n := uint32(0); n < 320; n++ {
					out = append(out, d.Frame(n) != nil)
				}
				return out
			},
		},
		{
			name:  "rtp.DatagramPool",
			fresh: func(*sim.Simulator) any { return new(rtp.DatagramPool) },
			dirty: func(_ *sim.Simulator, v any) {
				p := v.(*rtp.DatagramPool)
				for i := 0; i < 40; i++ {
					d := p.Get()
					d.B = append(d.B, make([]byte, 300)...)
					if i%3 == 0 {
						d.Release() // the rest are held past the Reset
					}
				}
			},
			reset: func(_ *sim.Simulator, v any) { v.(*rtp.DatagramPool).Reset() },
			use: func(_ *sim.Simulator, v any) any {
				p := v.(*rtp.DatagramPool)
				var out []any
				var held []*rtp.Datagram
				for i := 0; i < 60; i++ {
					d := p.Get()
					out = append(out, len(d.B))
					d.B = append(d.B, byte(i))
					if held = append(held, d); i%4 == 3 {
						for _, d := range held {
							d.Release()
						}
						held = held[:0]
					}
					st := p.Stats()
					out = append(out, st.Live, st.PeakLive)
				}
				return out
			},
		},
		{
			name: "video.Sender",
			fresh: func(s *sim.Simulator) any {
				return video.NewSender(s, video.DefaultSenderConfig(), cc.NewStatic(6e6), s.Stream("encoder"))
			},
			dirty: func(s *sim.Simulator, v any) {
				snd := v.(*video.Sender)
				snd.Transmit = func(*rtp.Packet, int) {} // held, never released
				snd.Start()
				s.RunUntil(2*time.Second + 7*time.Millisecond)
			},
			reset: func(s *sim.Simulator, v any) {
				v.(*video.Sender).Reset(s, video.DefaultSenderConfig(), cc.NewStatic(6e6), s.Stream("encoder"))
			},
			use: func(s *sim.Simulator, v any) any {
				snd := v.(*video.Sender)
				var out []any
				snd.Transmit = func(p *rtp.Packet, size int) {
					out = append(out, p.Header.SequenceNumber, size, s.Now())
					p.Release()
				}
				snd.Start()
				s.RunUntil(time.Second)
				snd.Stop()
				for seq := uint16(0); seq < 2000; seq += 7 {
					rec, ok := snd.LookupSeq(seq)
					out = append(out, rec, ok, snd.Acked(seq))
				}
				for n := uint32(0); n < 70; n++ {
					rate, complexity, ok := snd.FrameEncoding(n)
					out = append(out, rate, complexity, ok)
				}
				return append(out, snd.FramesEncoded, snd.PacketsSent, snd.BytesSent, snd.Queue().Len(), snd.PacketPool().Live)
			},
		},
		{
			name:  "video.Player",
			fresh: func(s *sim.Simulator) any { return video.NewPlayer(s, playerConfig, nil, nil) },
			dirty: func(s *sim.Simulator, v any) {
				p := v.(*video.Player)
				p.KeyframeRequest = func() {}
				// Frames 30–39 never arrive (skips, a stall, keyframe
				// requests), and the last three only in part.
				feedPlayer(s, p, 80, func(n uint32, i int) bool { return n >= 30 && n < 40 || n >= 77 && i > 0 })
				s.RunUntil(2800 * time.Millisecond)
			},
			reset: func(s *sim.Simulator, v any) { v.(*video.Player).Reset(s, playerConfig, nil, nil) },
			use: func(s *sim.Simulator, v any) any {
				p := v.(*video.Player)
				requests := 0
				p.KeyframeRequest = func() { requests++ }
				var latency, ssim, fps metrics.Sketch
				p.RecordInto(&latency, &ssim)
				feedPlayer(s, p, 75, func(n uint32, i int) bool { return n == 20 && i > 0 || n >= 50 && n < 55 })
				s.RunUntil(3 * time.Second)
				p.Stop()
				p.AddFPS(&fps, 3*time.Second)
				return []any{p.FramesPlayed, p.FramesSkipped, p.Stalls, requests, p.PacketsReceived(), p.BytesReceived(),
					p.StallsPerMinute(3 * time.Second), fps.N(), fps.Sum(), fps.Max(),
					latency.N(), latency.Sum(), ssim.N(), ssim.Sum()}
			},
		},
		{
			name:  "gcc.Controller",
			fresh: func(*sim.Simulator) any { return gcc.New(gcc.Config{UseTrendline: true}) },
			dirty: func(_ *sim.Simulator, v any) { feedController(v.(cc.Controller), 1, 400, 0) },
			reset: func(_ *sim.Simulator, v any) { v.(*gcc.Controller).Reset(gcc.Config{UseTrendline: true}) },
			use: func(_ *sim.Simulator, v any) any {
				c := v.(*gcc.Controller)
				return feedController(c, 2, 300, 0)
			},
		},
		{
			name:  "scream.Controller",
			fresh: func(*sim.Simulator) any { return scream.New(scream.Config{}) },
			dirty: func(_ *sim.Simulator, v any) {
				c := v.(*scream.Controller)
				c.SetQueue(new(cc.SendQueue))
				for seq := 0; seq < 3000; seq++ { // never acknowledged: numbers 1 024 apart collide
					c.OnPacketSent(cc.SentPacket{Seq: uint16(seq), Size: 1200})
				}
			},
			reset: func(_ *sim.Simulator, v any) { v.(*scream.Controller).Reset(scream.Config{}) },
			use: func(_ *sim.Simulator, v any) any {
				c := v.(*scream.Controller)
				out := feedController(c, 2, 3000, 60000)
				return append(out, c.Losses, c.LossesInBand, c.LossesWindow, c.QueueDiscards)
			},
		},
		{
			name: "link.Link",
			fresh: func(s *sim.Simulator) any {
				return link.New(s, linkProfile(), nil, linkState, s.Stream("link"))
			},
			dirty: func(s *sim.Simulator, v any) {
				l := v.(*link.Link)
				l.SetFlight(flight.StandardFlight())
				l.SetCapacityShare(func(time.Duration) float64 { return 0.2 })
				l.SetTracer(obs.New(0), obs.DirDown)
				l.SetFaults(fault.NewPathLine([]fault.Window{{Start: time.Second, Duration: 3 * time.Second, Dir: fault.Both}}, fault.Uplink, fault.PathAll), false, 0)
				l.Deliver = func(any, int, time.Duration, time.Duration) {}
				s.Every(0, 200*time.Microsecond, func() { l.Send(nil, 1200) })
				s.RunUntil(3 * time.Second)
			},
			reset: func(s *sim.Simulator, v any) {
				v.(*link.Link).Reset(s, linkProfile(), nil, linkState, s.Stream("link"))
			},
			use: func(s *sim.Simulator, v any) any { return linkSchedule(s, v.(*link.Link)) },
		},
		{
			name: "endpoint pair",
			fresh: func(s *sim.Simulator) any {
				snd := NewSender(s, pairSender)
				return &resetPair{snd, NewReceiver(s, pairReceiver(snd))}
			},
			dirty: func(s *sim.Simulator, v any) {
				p := v.(*resetPair)
				p.join(s, 5)
				s.RunUntil(2*time.Second + 3*time.Millisecond) // packets and datagrams still on the way
			},
			reset: func(s *sim.Simulator, v any) {
				p := v.(*resetPair)
				p.snd.Reset(s, pairSender)
				p.rcv.Reset(s, pairReceiver(p.snd))
			},
			use: func(s *sim.Simulator, v any) any {
				p := v.(*resetPair)
				var out []any
				p.join(s, 9)
				s.Every(0, 100*time.Millisecond, func() { out = append(out, p.snd.TargetBitrate(s.Now())) })
				s.RunUntil(3 * time.Second)
				p.snd.Stop()
				p.rcv.Stop()
				pl, vs := p.rcv.Player, p.snd.Video
				return append(out, p.rcv.NacksSent, p.snd.RtxBytes, pl.FramesPlayed, pl.FramesSkipped, pl.Stalls,
					pl.KeyframeRequests, pl.PacketsRepaired, vs.FramesEncoded, vs.PacketsSent, vs.BytesSent,
					p.snd.Datagrams().Live, p.snd.Datagrams().PeakLive, p.rcv.Datagrams().Live, p.rcv.Datagrams().PeakLive)
			},
		},
	}
}

// mediaFrame packetizes frame n into total packets of a packetizer of its
// own, with one reference each that nobody releases.
func mediaFrame(n uint32, total int) []*rtp.Packet {
	mtu := 1200
	return rtp.NewPacketizer(1, 96, mtu).Packetize(rtp.FrameInfo{Num: n, Size: total * (mtu - rtp.HeaderSize - 8), EncodeTime: time.Duration(n) * time.Millisecond})
}

var playerConfig = video.PlayerConfig{JitterBuffer: 150 * time.Millisecond, KeyframeRecovery: true}

// feedPlayer hands p frames 0 to n−1 at 30 fps, each of four packets with
// 25–35 ms of delay, leaving out those lost says.
func feedPlayer(s *sim.Simulator, p *video.Player, n uint32, lost func(n uint32, i int) bool) {
	pk := rtp.NewPacketizer(1, 96, 1200)
	for num := uint32(0); num < n; num++ {
		encoded := time.Duration(num) * time.Second / 30
		for i, pkt := range pk.Packetize(rtp.FrameInfo{Num: num, Size: 4000, EncodeTime: encoded, Keyframe: num%30 == 0}) {
			if lost(num, i) {
				pkt.Release()
				continue
			}
			at := encoded + time.Duration(25+(int(num)*7+i*3)%11)*time.Millisecond
			s.At(at, func() {
				p.OnPacket(pkt, at)
				pkt.Release()
			})
		}
	}
}

// feedController drives c through reports of 26 sends each, acknowledged
// 60 ms later over the 256 numbers ending at the newest, with random
// losses and delay from seed, from sequence number first, and returns the
// rate and window decisions after each report.
func feedController(c cc.Controller, seed int64, reports int, first uint16) []any {
	rng := rand.New(rand.NewSource(seed))
	sends := map[uint16]cc.Ack{}
	seq, now := first, time.Duration(0)
	acks := make([]cc.Ack, 256)
	var out []any
	for r := 0; r < reports; r++ {
		for k := 0; k < 26; k++ {
			now += 385 * time.Microsecond
			c.OnPacketSent(cc.SentPacket{Seq: seq, Size: 1200, SendTime: now})
			sends[seq] = cc.Ack{Seq: seq}
			if rng.Intn(50) != 0 {
				sends[seq] = cc.Ack{Seq: seq, Received: true, Size: 1200, SendTime: now,
					ArrivalTime: now + 40*time.Millisecond + time.Duration(rng.Intn(30))*time.Millisecond}
			}
			seq++
		}
		for j := range acks {
			n := seq - 256 + uint16(j)
			if a, ok := sends[n]; ok {
				acks[j] = a
			} else {
				acks[j] = cc.Ack{Seq: n} // before the first send
			}
		}
		c.OnFeedback(now+60*time.Millisecond, acks)
		out = append(out, c.TargetBitrate(now), c.PacingRate(now), c.CanSend(now, 60_000))
	}
	return out
}

func linkProfile() link.Profile {
	p := link.ProfileFor(cell.Urban, cell.P1)
	p.BufferBytes = 300_000
	p.AltOutlierRate = 5
	return p
}

// linkState flies at 104–114 m, above both altitude thresholds.
func linkState(t time.Duration) flight.State { return flight.StandardFlight().At(t + 195*time.Second) }

// linkSchedule drives l through 5 s of three-class traffic with an outage,
// a loss fade and a burst that fills the buffer, and returns its
// deliveries, drops, trace and ledger.
func linkSchedule(s *sim.Simulator, l *link.Link) []any {
	var out []any
	tr := obs.New(0)
	l.SetTracer(tr, obs.DirUp)
	l.SetFaults(fault.NewPathLine([]fault.Window{
		{Start: 2 * time.Second, Duration: 700 * time.Millisecond, Dir: fault.Both},
		{Start: 3500 * time.Millisecond, Duration: 40 * time.Millisecond, Dir: fault.Both, Loss: true},
	}, fault.Uplink, fault.PathAll), true, 0)
	l.Deliver = func(meta any, size int, sentAt, at time.Duration) {
		out = append(out, "land", meta, size, sentAt, at)
	}
	l.OnDrop = func(meta any, size int, sentAt time.Duration, c link.Class, r link.DropReason) {
		out = append(out, "drop", meta, size, sentAt, c, r, s.Now())
	}
	n := 0
	s.Every(0, 400*time.Microsecond, func() {
		if n++; s.Now() < 5*time.Second {
			l.Send(n, 1200)
			if n%40 == 0 {
				l.SendControl(-n, 80)
			}
			if n%9 == 0 {
				l.SendRTX(1_000_000+n, 1200)
			}
		}
	})
	s.RunUntil(6 * time.Second)
	return append(out, tr.Events(), l.Count(link.Media), l.Count(link.Control), l.Count(link.RTX))
}

// resetPair is a sender and a receiver joined by fixed delays, one media packet
// in every lossEvery lost.
type resetPair struct {
	snd *Sender
	rcv *Receiver
}

var pairSender = SenderConfig{Video: video.DefaultSenderConfig(), CC: CCGCC, Repair: repair.DefaultConfig()}

func pairReceiver(snd *Sender) ReceiverConfig {
	vcfg := video.DefaultSenderConfig()
	player := video.DefaultPlayerConfig()
	player.KeyframeRecovery = true
	return ReceiverConfig{SSRC: vcfg.SSRC, PayloadType: vcfg.PayloadType, Player: player,
		FrameEncoding: snd.Video.FrameEncoding, TWCC: true, Repair: repair.DefaultConfig()}
}

// join wires the pair on s and starts it in the timer-order contract's
// order: media up in 30 ms, feedback down in 20 ms, every packet and
// datagram released once it has been handed over.
func (p *resetPair) join(s *sim.Simulator, lossEvery int) {
	n := 0
	up := func(pkt *rtp.Packet, _ int) {
		if n++; n%lossEvery == 0 {
			pkt.Release()
			return
		}
		s.After(30*time.Millisecond, func() {
			p.rcv.OnMedia(pkt, s.Now())
			pkt.Release()
		})
	}
	p.snd.Media, p.snd.RTX = up, up
	p.snd.Control = func(d *rtp.Datagram) {
		s.After(30*time.Millisecond, func() {
			p.rcv.OnDatagram(d.B, s.Now())
			d.Release()
		})
	}
	p.rcv.Feedback = func(d *rtp.Datagram, _ int) {
		s.After(20*time.Millisecond, func() {
			p.snd.OnDatagram(d.B, s.Now())
			d.Release()
		})
	}
	p.rcv.StartRepair()
	p.snd.StartReports()
	p.rcv.StartReports()
	p.snd.Start()
}
