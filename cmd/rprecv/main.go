// Command rprecv receives the rpsend stream over UDP on the receiving
// endpoint the simulated campaigns run (internal/endpoint): jitter buffer
// and player, receiver reports, NACKs for lost packets, keyframe requests,
// and both congestion feedback formats (transport-wide for GCC, RFC 8888
// for SCReAM), so it serves whichever controller the sender runs. Feedback
// goes to the first address that sends it media, and only there.
//
//	rprecv -listen :5600
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"rpivideo/internal/endpoint"
	"rpivideo/internal/repair"
	"rpivideo/internal/sim"
	"rpivideo/internal/video"
)

func main() {
	listen := flag.String("listen", ":5600", "listen address")
	flag.Parse()

	conn, err := net.ListenPacket("udp", *listen)
	if err != nil {
		log.Fatalf("rprecv: listen: %v", err)
	}
	defer conn.Close()
	fmt.Println("rprecv: listening on", conn.LocalAddr())

	vcfg := video.DefaultSenderConfig()
	pcfg := video.DefaultPlayerConfig()
	pcfg.KeyframeRecovery = true
	s := sim.New(1)
	rcv := endpoint.NewReceiver(s, endpoint.ReceiverConfig{
		SSRC: vcfg.SSRC, PayloadType: vcfg.PayloadType, Player: pcfg,
		TWCC: true, CCFB: true, Repair: repair.DefaultConfig(),
	})
	rcv.StartRepair()
	rcv.StartReports()
	s.Every(time.Second, time.Second, func() {
		pl := rcv.Player
		fmt.Printf("t=%4.0fs %7d pkts %8.2f MB %6d frames %4d stalls %5d nacks\n", s.Now().Seconds(),
			pl.PacketsReceived(), float64(pl.BytesReceived())/1e6, pl.FramesPlayed+pl.FramesSkipped, len(pl.Stalls), rcv.NacksSent)
	})
	log.Fatalf("rprecv: %v", endpoint.ServeReceiver(s, rcv, conn, 0))
}
