package endpoint

import (
	"errors"
	"net"
	"os"
	"time"

	"rpivideo/internal/rtp"
	"rpivideo/internal/sim"
)

// Marshalled adapts a byte sink to a Sender's Media and RTX outputs: the
// packet crosses as its wire bytes, and the reference handed over with it is
// released once they are written. A packet that cannot be marshalled is
// dropped, as the network would drop it.
func Marshalled(write func(buf []byte)) func(p *rtp.Packet, size int) {
	return func(p *rtp.Packet, _ int) {
		buf, err := p.Marshal()
		p.Release()
		if err == nil {
			write(buf)
		}
	}
}

// runLive runs the clock s against the wall clock and feeds every datagram
// read from conn to handle, all on the calling goroutine, so the endpoints
// stay as single-threaded as they are under the simulator. The read deadline
// is the clock's quantum: 1 ms, fine enough for the pacer. runLive returns
// nil once dur has passed (dur zero: never) and the read error if conn fails
// or is closed first.
func runLive(s *sim.Simulator, conn net.PacketConn, dur time.Duration, handle func(buf []byte, from net.Addr)) error {
	start := time.Now()
	buf := make([]byte, 2048)
	for dur == 0 || time.Since(start) < dur {
		if err := conn.SetReadDeadline(time.Now().Add(time.Millisecond)); err != nil {
			return err
		}
		n, from, err := conn.ReadFrom(buf)
		s.RunUntil(time.Since(start))
		if err == nil {
			handle(buf[:n], from)
		} else if !errors.Is(err, os.ErrDeadlineExceeded) {
			return err
		}
	}
	return nil
}

// ServeSender joins snd to its receiver through the connected socket conn
// for dur: packets out as wire bytes, feedback in through OnDatagram. The
// caller starts snd's tickers first. A failed write is a lost packet; a
// receiver that is gone surfaces as the next read's error (the connected
// socket reports the ICMP refusal there) and ends the stream. A sender
// report's slot is released once its bytes are written, as the simulated
// link releases it once they land.
func ServeSender(s *sim.Simulator, snd *Sender, conn *net.UDPConn, dur time.Duration) error {
	write := func(buf []byte) { _, _ = conn.Write(buf) }
	snd.Media, snd.RTX = Marshalled(write), Marshalled(write)
	snd.Control = func(d *rtp.Datagram) {
		write(d.B)
		d.Release()
	}
	return runLive(s, conn, dur, func(buf []byte, _ net.Addr) {
		snd.OnDatagram(buf, s.Now())
	})
}

// ServeReceiver joins rcv to its sender through the listening socket conn
// for dur. The sender is whoever sent the first datagram rcv accepts as
// media of its stream: feedback goes there and nowhere else, and datagrams
// from any other address are ignored from then on, so a stray or forged
// packet cannot redirect the feedback stream. Each feedback slot is
// released once written, or at once while there is no peer yet.
func ServeReceiver(s *sim.Simulator, rcv *Receiver, conn net.PacketConn, dur time.Duration) error {
	var peer net.Addr
	rcv.Feedback = func(d *rtp.Datagram, _ int) {
		if peer != nil {
			_, _ = conn.WriteTo(d.B, peer) // a lost report; the next one supersedes it
		}
		d.Release()
	}
	return runLive(s, conn, dur, func(buf []byte, from net.Addr) {
		if peer != nil && from.String() != peer.String() {
			return
		}
		if v := rcv.OnDatagram(buf, s.Now()); peer == nil && (v == Fresh || v == Duplicate) {
			peer = from
		}
	})
}
