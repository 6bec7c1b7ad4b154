// Package endpoint holds the two ends of the paper's measurement pipeline as
// the GStreamer pair ran them: a Sender (encoder → RTP → pacer under GCC or
// SCReAM, plus the RTX cache, the SR clock and the feedback consumer) and a
// Receiver (dedup → reception statistics → loss detector → reorder → player,
// plus the TWCC/CCFB responder, the NACK scheduler and the RR clock).
//
// Each end depends on a clock and on packet-out functions, nothing else. The
// clock is a *sim.Simulator: core.Run steps it through a whole flight, the
// UDP tools advance one with the wall clock from their socket loop
// (ServeSender, ServeReceiver). The packet-out functions are whatever joins
// the two ends: core hands them link.Send and the bond router, the tools a
// socket write behind Marshalled. The inbound side is the same split: OnMedia
// takes the typed packets the simulator carries, OnDatagram parses the bytes
// a socket delivers and is the only place that must survive hostile input.
//
// Neither end accounts for a run. What core.Run reports (one-way delay,
// goodput, suppressed copies) it derives from the Verdict each inbound call
// returns, the two On* hooks and the ends' counters.
package endpoint

import (
	"fmt"
	"time"
)

// CC names a rate-control regime (§3.2: static, GCC or SCReAM).
type CC int

// Rate-control regimes.
const (
	CCStatic CC = iota
	CCGCC
	CCSCReAM
)

// String implements fmt.Stringer.
func (k CC) String() string {
	switch k {
	case CCGCC:
		return "gcc"
	case CCSCReAM:
		return "scream"
	default:
		return "static"
	}
}

// ParseCC is String's inverse, for command-line flags.
func ParseCC(name string) (CC, error) {
	for _, k := range []CC{CCStatic, CCGCC, CCSCReAM} {
		if name == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown rate control %q (static, gcc or scream)", name)
}

// Verdict is what an endpoint did with one inbound packet.
type Verdict uint8

// Verdicts. Only Rejected promises that no endpoint state changed.
const (
	// Rejected: malformed, truncated, of an unknown type, from a foreign
	// stream, or a retransmission nobody was waiting for.
	Rejected Verdict = iota
	// Fresh: the first copy of a media packet, passed down the chain.
	Fresh
	// Duplicate: a copy the dedup stage had already seen on another path.
	Duplicate
	// Repaired: a retransmission that filled a loss still open.
	Repaired
	// Control: an RTCP packet, consumed.
	Control
)

// Feedback cadences of the two implementations the paper used.
const (
	twccInterval = 50 * time.Millisecond
	ccfbInterval = 10 * time.Millisecond
)

// receiverSSRC identifies the receiver in the RTCP it originates.
const receiverSSRC = 1

// pliAirSize is what a keyframe request costs on the simulated feedback
// path: the 12 RTCP bytes plus IP and UDP headers, the 40 bytes the fault
// campaigns were calibrated with. Every other packet is charged its RTP or
// RTCP length alone.
const pliAirSize = 40
