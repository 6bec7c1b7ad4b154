// Live UDP demo: the sending and receiving endpoints of the simulated
// campaigns (internal/endpoint) in one process, joined by a real loopback
// socket instead of the simulated link. This is the single-binary version
// of cmd/rpsend + cmd/rprecv; it exits non-zero unless frames played and
// GCC raised its target, which is what CI's live smoke checks.
package main

import (
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

const streamFor = 5 * time.Second

func main() {
	recvConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer recvConn.Close()
	sendConn, err := net.DialUDP("udp", nil, recvConn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		log.Fatal(err)
	}
	defer sendConn.Close()

	// Each end has its own clock and its own goroutine, as two hosts would.
	vcfg := video.DefaultSenderConfig()
	pcfg := video.DefaultPlayerConfig()
	pcfg.KeyframeRecovery = true
	ss, rs := sim.New(1), sim.New(2)
	snd := endpoint.NewSender(ss, endpoint.SenderConfig{Video: vcfg, CC: endpoint.CCGCC, Repair: repair.DefaultConfig()})
	rcv := endpoint.NewReceiver(rs, endpoint.ReceiverConfig{
		SSRC: vcfg.SSRC, PayloadType: vcfg.PayloadType, Player: pcfg, TWCC: true, Repair: repair.DefaultConfig(),
	})
	rcv.StartRepair()
	snd.StartReports()
	rcv.StartReports()
	ss.Every(time.Second, time.Second, func() {
		fmt.Printf("sender: t=%2.0fs target %.1f Mbps\n", ss.Now().Seconds(), snd.TargetBitrate(ss.Now())/1e6)
	})
	snd.Start()
	startRate := snd.TargetBitrate(0)

	received := make(chan error, 1)
	go func() { received <- endpoint.ServeReceiver(rs, rcv, recvConn, streamFor+time.Second) }()
	if err := endpoint.ServeSender(ss, snd, sendConn, streamFor); err != nil {
		log.Fatal(err)
	}
	if err := <-received; err != nil {
		log.Fatal(err)
	}

	pl := rcv.Player
	played := pl.FramesPlayed
	endRate := snd.TargetBitrate(ss.Now())
	fmt.Printf("receiver: %d packets, %d frames played, %d stalls; sender: target %.1f -> %.1f Mbps\n",
		pl.PacketsReceived(), played, len(pl.Stalls), startRate/1e6, endRate/1e6)
	if played == 0 || endRate <= startRate {
		os.Exit(1)
	}
}
