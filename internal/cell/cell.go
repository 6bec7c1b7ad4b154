// Package cell models the LTE radio-access side of the measurement
// campaign: base-station deployments for the two test environments and two
// operators, a received-power model (path loss, antenna down-tilt pattern,
// correlated shadowing, altitude-dependent line-of-sight), and an A3-event
// handover state machine that produces the handover frequency and Handover
// Execution Time (HET) statistics of §4.1.
//
// The model is a calibrated synthetic substitute for the paper's live LTE
// networks (see DESIGN.md): its free parameters are chosen so the published
// first-order statistics hold — handover frequency an order of magnitude
// higher in the air than on the ground (up to ≈0.7 HO/s), more handovers in
// the urban area, HET bulk below the 49.5 ms 3GPP threshold with heavy air
// outliers up to ≈4 s, and ping-pong handovers in the rural zone.
package cell

import "time"

// Environment selects the measurement area.
type Environment int

// Environments of the campaign.
const (
	Urban Environment = iota
	Rural
)

// String implements fmt.Stringer.
func (e Environment) String() string {
	if e == Urban {
		return "urban"
	}
	return "rural"
}

// Operator selects the mobile network operator profile.
type Operator int

// Operators of the campaign: P1 is the default throughout the study, P2 the
// competing operator of Appendix A.3.
const (
	P1 Operator = iota
	P2
)

// String implements fmt.Stringer.
func (o Operator) String() string {
	if o == P1 {
		return "P1"
	}
	return "P2"
}

// BS is one base station (cell site).
type BS struct {
	ID     int
	X, Y   float64 // metres, same frame as flight coordinates
	Height float64 // antenna height in metres
}

// Event is one completed handover.
type Event struct {
	// From and To are the serving cell IDs.
	From, To int
	// HET is the execution time: the window during which the link is
	// interrupted.
	HET time.Duration
}
