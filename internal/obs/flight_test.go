package obs_test

import (
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rpivideo/internal/cell"
	"rpivideo/internal/core"
	"rpivideo/internal/obs"
)

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestFlightTraceBoundedPieces: a traced 360 s urban GCC flight — about
// 100 MB of JSONL — exported and re-parsed through a pipe holds at most
// 2·GOMAXPROCS+1 pieces in flight in either job, and reads back every
// event.
func TestFlightTraceBoundedPieces(t *testing.T) {
	if testing.Short() {
		t.Skip("360 s flight skipped in -short mode")
	}
	res := core.Run(core.Config{Env: cell.Urban, Op: cell.P1, Air: true, CC: core.CCGCC, Seed: 7, Duration: 360 * time.Second, Trace: true})
	var peak atomic.Int64
	obs.SetPipelineObserver(func(n int) {
		for p := peak.Load(); int64(n) > p && !peak.CompareAndSwap(p, int64(n)); p = peak.Load() {
		}
	})
	defer obs.SetPipelineObserver(nil)

	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(core.WriteCampaignTrace(pw, []*core.Result{res})) }()
	in := &countingReader{r: pr}
	runs, err := obs.ReadJSONL(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || len(runs[0].Events) != res.Trace.Len() {
		t.Fatalf("read back %d runs, want 1 of %d events", len(runs), res.Trace.Len())
	}
	bound := int64(2*runtime.GOMAXPROCS(0) + 1)
	t.Logf("%d events, %.1f MB of JSONL, at most %d pieces in flight (bound %d)", res.Trace.Len(), float64(in.n)/1e6, peak.Load(), bound)
	if p := peak.Load(); p > bound || p < 1 {
		t.Errorf("%d pieces in flight at most, bound %d", p, bound)
	}
}
