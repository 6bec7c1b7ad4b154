// Command rpsend streams the synthetic video workload over real UDP from
// the sending endpoint the simulated campaigns run (internal/endpoint):
// encoder, RTP packetizer and pacer under the chosen congestion controller,
// sender reports, and NACK-driven retransmission. Pair it with rprecv, which
// answers whichever controller is picked here:
//
//	rprecv -listen :5600            # terminal 1
//	rpsend -to 127.0.0.1:5600 -cc gcc -duration 30s
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"rpivideo/internal/endpoint"
	"rpivideo/internal/repair"
	"rpivideo/internal/sim"
	"rpivideo/internal/video"
)

func main() {
	to := flag.String("to", "127.0.0.1:5600", "receiver address")
	ccName := flag.String("cc", "gcc", "rate control: static, gcc or scream")
	staticRate := flag.Float64("rate", 8e6, "static bitrate (bits/s)")
	duration := flag.Duration("duration", 30*time.Second, "stream duration")
	mtu := flag.Int("mtu", 1200, "MTU")
	flag.Parse()

	kind, err := endpoint.ParseCC(*ccName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpsend:", err)
		os.Exit(2)
	}
	raddr, err := net.ResolveUDPAddr("udp", *to)
	if err != nil {
		log.Fatalf("rpsend: resolve: %v", err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		log.Fatalf("rpsend: dial: %v", err)
	}
	defer conn.Close()

	vcfg := video.DefaultSenderConfig()
	vcfg.MTU = *mtu
	s := sim.New(1)
	snd := endpoint.NewSender(s, endpoint.SenderConfig{Video: vcfg, CC: kind, StaticRate: *staticRate, Repair: repair.DefaultConfig()})
	snd.StartReports()
	s.Every(time.Second, time.Second, func() {
		fmt.Printf("t=%4.0fs target %5.1f Mbps, sent %d pkts, %.1f MB retransmitted\n",
			s.Now().Seconds(), snd.TargetBitrate(s.Now())/1e6, snd.Video.PacketsSent, float64(snd.RtxBytes)/1e6)
	})
	snd.Start()
	if err := endpoint.ServeSender(s, snd, conn, *duration); err != nil {
		log.Fatalf("rpsend: %v", err)
	}
	fmt.Printf("done: %d packets\n", snd.Video.PacketsSent)
}
