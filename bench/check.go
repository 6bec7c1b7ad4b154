package main

import (
	"fmt"
	"time"

	"rpivideo/internal/core"
)

// framesEncodedBound is the number of frames a 30 FPS encoder can have
// produced in a run of the given length (one at t=0, then one per tick).
func framesEncodedBound(dur time.Duration) int {
	return int(dur*30/time.Second) + 1
}

// runCounts are the counters the conservation identities read; a Result
// and a Summary (with runs folded) both carry them.
type runCounts struct {
	sent, delivered, lost, overflows, stale int
	rtxBytes                                int
	repairBudget                            float64
	played, skipped, encoded                int
}

// violations lists the identities the counters break.
func (c runCounts) violations(who string) []string {
	var bad []string
	if c.delivered+c.lost+c.overflows+c.stale > c.sent {
		bad = append(bad, fmt.Sprintf("%s: delivered %d + lost %d + overflow %d + stale %d exceeds sent %d",
			who, c.delivered, c.lost, c.overflows, c.stale, c.sent))
	}
	if float64(c.rtxBytes) > c.repairBudget {
		bad = append(bad, fmt.Sprintf("%s: rtx bytes %d exceed the accrued repair budget %.0f", who, c.rtxBytes, c.repairBudget))
	}
	if c.played+c.skipped > c.encoded {
		bad = append(bad, fmt.Sprintf("%s: frames played %d + skipped %d exceed the %d encoded", who, c.played, c.skipped, c.encoded))
	}
	return bad
}

func resultIdentities(who string, r *core.Result) []string {
	if r == nil {
		return []string{who + ": no result"}
	}
	return runCounts{r.PacketsSent, r.PacketsDelivered, r.PacketsLost, r.Overflows, r.StaleDrops,
		r.RtxBytes, r.RepairBudgetAccrued, r.FramesPlayed, r.FramesSkipped, framesEncodedBound(r.Duration)}.violations(who)
}

func summaryIdentities(who string, s *core.Summary, perRun time.Duration) []string {
	if s == nil {
		return []string{who + ": no summary"}
	}
	return runCounts{s.PacketsSent, s.PacketsDelivered, s.PacketsLost, s.Overflows, s.StaleDrops,
		s.RtxBytes, s.RepairBudgetAccrued, s.FramesPlayed, s.FramesSkipped, s.Runs * framesEncodedBound(perRun)}.violations(who)
}
