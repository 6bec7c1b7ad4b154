package core

import (
	"io"

	"rpivideo/internal/obs"
)

// WriteCampaignTrace renders every traced run of a campaign as JSONL, in
// run-index order: one meta line per run followed by its events. Untraced
// or failed (nil) runs are skipped. Because runs are pure functions of
// (Config, Seed) and the export order is the run index, the output is
// byte-identical at any campaign worker count. A writer that can grow (a
// bytes.Buffer) is sized once for the whole campaign instead of doubling
// its way there.
func WriteCampaignTrace(w io.Writer, results []*Result) error {
	if g, ok := w.(interface{ Grow(int) }); ok {
		events := 0
		for _, r := range results {
			if r != nil && r.Trace != nil {
				events += r.Trace.Len()
			}
		}
		g.Grow(72 * events) // a trace line averages 65 bytes
	}
	for i, r := range results {
		if r == nil || r.Trace == nil {
			continue
		}
		if err := obs.WriteJSONL(w, TraceRunMeta(r, i), r.Trace.Chunks()...); err != nil {
			return err
		}
	}
	return nil
}

// TraceRunMeta builds the JSONL meta header for one traced run — the same
// header WriteCampaignTrace emits, exposed so live trace consumers (the
// analyzer in particular) see exactly the metadata an offline JSONL replay
// would.
func TraceRunMeta(r *Result, runIndex int) obs.RunMeta {
	return obs.RunMeta{
		Label:    r.Config.Label(),
		Run:      runIndex,
		Seed:     r.Config.Seed,
		Duration: r.Duration,
		Events:   r.Trace.Emitted(),
		Dropped:  r.Trace.Dropped(),
	}
}

// WriteCampaignMetrics renders the campaign registry (CampaignMetrics) as
// indented JSON.
func WriteCampaignMetrics(w io.Writer, results []*Result) error {
	return CampaignMetrics(results).WriteJSON(w)
}
