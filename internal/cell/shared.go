package cell

import (
	"time"

	"rpivideo/internal/metrics"
	"rpivideo/internal/obs"
)

// AttachSample is one scheduling epoch of one UE's attachment timeline: the
// serving-cell *index* in the shared deployment at the epoch start (-1
// before the UE first attaches) and the serving RSRP in dBm (the PF
// scheduler's weight input; -Inf while unattached). A UE that is
// re-establishing after an RLF still reports its old serving index — it
// holds the cell's UE context (and therefore PRBs) until re-establishment
// completes elsewhere, which is the conservative LTE-ish reading.
type AttachSample struct {
	Cell int
	RSRP float64
}

// CellStats aggregates one cell's life under fleet contention.
type CellStats struct {
	// Cell is the base station's ID (not its deployment index).
	Cell int
	// Attaches counts UE arrivals onto the cell (epoch-transition edges).
	Attaches int
	// PeakUsers is the largest number of simultaneously attached UEs seen
	// in any single epoch.
	PeakUsers int
	// OverloadEpochs counts epochs where the cell had at least two users
	// and some user's share fell below the overload floor.
	OverloadEpochs int
}

// Contention is the output of one shared-map scheduling fold.
type Contention struct {
	// Shares[u][k] is UAV u's capacity share during epoch k. Epochs where
	// the UAV is unattached carry share 1 (its link is already silenced by
	// the radio model; the scheduler grants it nothing and charges it
	// nothing).
	Shares [][]float64
	// Cells holds per-cell statistics in deployment order.
	Cells []CellStats
	// Attaches and Detaches count UE/cell association edges fleet-wide
	// (the first camp of each UE counts as an attach; a handover is one
	// detach plus one attach).
	Attaches, Detaches int
	// OverloadEpochs is the fleet-wide total of overloaded cell-epochs.
	OverloadEpochs int
	// PeakUsers is the largest per-cell user count seen anywhere.
	PeakUsers int
	// MinShare is the smallest share granted to any attached UE in any
	// epoch (1 when no cell ever had two users).
	MinShare float64
	// ShareHist is the distribution of granted shares over user-epochs.
	ShareHist metrics.Sketch
	// Events is the per-cell observability timeline (attach/detach per UE,
	// overload start/end per cell), populated only when requested.
	Events []obs.Event
}

// Contend folds a fleet's attachment timelines into per-UAV-per-epoch
// capacity shares under the given scheduler, plus per-cell statistics and
// (optionally) an attach/detach/overload event timeline. timelines[u][k]
// is UAV u's attachment at epoch k; cells is the shared deployment the
// timeline indices refer to (only its IDs are read — stats and events
// report BS IDs, not slice indices). overloadShare is the per-user share
// floor below which a multi-user cell-epoch counts as overloaded.
//
// The fold is a pure serial function of its inputs, so a fleet's shares
// are deterministic regardless of how the timelines were computed.
func Contend(timelines [][]AttachSample, cells []BS, kind SchedulerKind, overloadShare float64, epoch time.Duration, record bool) *Contention {
	nUE := len(timelines)
	nEpochs := 0
	for _, tl := range timelines {
		if len(tl) > nEpochs {
			nEpochs = len(tl)
		}
	}
	ct := &Contention{
		Shares:   make([][]float64, nUE),
		Cells:    make([]CellStats, len(cells)),
		MinShare: 1,
	}
	for i := range ct.Cells {
		ct.Cells[i].Cell = cells[i].ID
	}
	flat := make([]float64, nUE*nEpochs)
	for u := range ct.Shares {
		ct.Shares[u] = flat[u*nEpochs : (u+1)*nEpochs]
		for k := range ct.Shares[u] {
			ct.Shares[u][k] = 1
		}
	}

	// Scratch: per-cell member lists rebuilt each epoch, in UAV order so
	// event emission and share assignment are stable.
	members := make([][]int, len(cells))
	rsrps := make([]float64, 0, nUE)
	shares := make([]float64, nUE)
	overloaded := make([]bool, len(cells))

	cellAt := func(u, k int) int {
		if k < 0 || k >= len(timelines[u]) {
			return -1
		}
		c := timelines[u][k].Cell
		if c < 0 || c >= len(cells) {
			return -1
		}
		return c
	}

	for k := 0; k < nEpochs; k++ {
		at := epoch * time.Duration(k)
		for c := range members {
			members[c] = members[c][:0]
		}
		for u := 0; u < nUE; u++ {
			prev := cellAt(u, k-1)
			cur := cellAt(u, k)
			if cur != prev {
				if prev >= 0 {
					ct.Detaches++
					if record {
						ct.Events = append(ct.Events, obs.Event{
							T: at, Kind: obs.KindCellDetach,
							Seq: int64(u), Aux: int64(cells[prev].ID),
						})
					}
				}
				if cur >= 0 {
					ct.Attaches++
					ct.Cells[cur].Attaches++
					if record {
						ct.Events = append(ct.Events, obs.Event{
							T: at, Kind: obs.KindCellAttach,
							Seq: int64(u), Aux: int64(cells[cur].ID),
							V: timelines[u][k].RSRP,
						})
					}
				}
			}
			if cur >= 0 {
				members[cur] = append(members[cur], u)
			}
		}
		for c := range members {
			n := len(members[c])
			if n == 0 {
				if overloaded[c] {
					overloaded[c] = false
					if record {
						ct.Events = append(ct.Events, obs.Event{
							T: at, Kind: obs.KindCellOverloadEnd,
							Seq: int64(cells[c].ID),
						})
					}
				}
				continue
			}
			cs := &ct.Cells[c]
			if n > cs.PeakUsers {
				cs.PeakUsers = n
			}
			if n > ct.PeakUsers {
				ct.PeakUsers = n
			}
			rsrps = rsrps[:0]
			for _, u := range members[c] {
				rsrps = append(rsrps, timelines[u][k].RSRP)
			}
			cellShares(kind, rsrps, shares)
			minShare := 1.0
			for i, u := range members[c] {
				sh := shares[i]
				ct.Shares[u][k] = sh
				ct.ShareHist.Add(sh)
				if sh < minShare {
					minShare = sh
				}
				if sh < ct.MinShare {
					ct.MinShare = sh
				}
			}
			over := n >= 2 && minShare < overloadShare
			if over {
				cs.OverloadEpochs++
				ct.OverloadEpochs++
			}
			if over != overloaded[c] {
				overloaded[c] = over
				if record {
					kind := obs.KindCellOverloadEnd
					if over {
						kind = obs.KindCellOverloadStart
					}
					ct.Events = append(ct.Events, obs.Event{
						T: at, Kind: kind,
						Seq: int64(cells[c].ID), Aux: int64(n), V: minShare,
					})
				}
			}
		}
	}
	return ct
}
