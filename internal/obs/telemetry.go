package obs

import "sync"

// StatusSnapshot is one live progress sample of a running campaign, fleet,
// or distributed coordinator — the payload of the /status endpoint and the
// /events SSE stream. Producers fill the fields they know; zero values mean
// "not applicable" (a solo campaign has no Workers, a campaign has no
// Cells).
type StatusSnapshot struct {
	// Mode names the producer: "campaign", "fleet", "dist", "experiments".
	Mode string `json:"mode"`
	// Label identifies the workload (scenario name, experiment ID).
	Label string `json:"label,omitempty"`
	// RunsDone / RunsTotal count completed runs against the campaign size.
	RunsDone  int `json:"runs_done"`
	RunsTotal int `json:"runs_total"`
	// RunErrors counts runs that finished with an error.
	RunErrors int `json:"run_errors"`
	// WallSeconds is the wall-clock time since the workload started.
	WallSeconds float64 `json:"wall_seconds"`
	// SimRate is the aggregate simulation speed so far in simulated
	// seconds per wall second (zero when unknown, e.g. dist coordinators,
	// whose shard payloads are opaque).
	SimRate float64 `json:"sim_rate"`
	// ETASeconds extrapolates the remaining wall time from progress so
	// far (zero until the first run completes).
	ETASeconds float64 `json:"eta_seconds"`
	// Done is set on the terminal snapshot.
	Done bool `json:"done"`
	// Workers is the per-worker lease state (dist mode only).
	Workers []WorkerStatus `json:"workers,omitempty"`
	// Cells is the per-cell contention fold (fleet mode only).
	Cells []CellStatus `json:"cells,omitempty"`
}

// WorkerStatus is one distributed worker's coordinator-side state.
type WorkerStatus struct {
	Worker int `json:"worker"`
	// State is the lease state machine phase: "starting", "idle", "busy",
	// or "dead" (a worker that loses its lease is killed, so there is no
	// phase between busy and dead).
	State string `json:"state"`
	// Chunk is the chunk the worker is executing (-1 when none), Attempt
	// how many times that chunk has been granted (retries show as
	// attempt > 1), and Progress the shards received under the current
	// lease.
	Chunk    int `json:"chunk"`
	Attempt  int `json:"attempt,omitempty"`
	Progress int `json:"progress,omitempty"`
}

// CellStatus is one shared cell's attach/overload accounting, published by
// fleet runs once the scheduling fold completes.
type CellStatus struct {
	Cell           int `json:"cell"`
	Attaches       int `json:"attaches"`
	PeakUsers      int `json:"peak_users"`
	OverloadEpochs int `json:"overload_epochs"`
}

// StatusSink receives live telemetry from a running workload: progress
// snapshots and completed runs' metric registries. Implementations must be
// safe for concurrent use — campaign workers publish from many goroutines.
// The Telemetry hub is the standard implementation; the interface keeps
// core/dist decoupled from the HTTP layer.
type StatusSink interface {
	// PublishStatus replaces the current status snapshot. The sink takes
	// ownership of the snapshot's slices; publishers must not mutate them
	// afterwards.
	PublishStatus(StatusSnapshot)
	// ObserveRun folds one completed run's registry into the live metrics
	// surface. The registry must not be mutated afterwards.
	ObserveRun(*Registry)
}

// Telemetry is the live ops hub behind Serve's /metrics, /status and
// /events endpoints: a mutex-guarded merged registry, the latest status
// snapshot, and an SSE subscriber fan-out. It implements StatusSink. The
// zero value is not usable; call NewTelemetry.
type Telemetry struct {
	mu         sync.Mutex
	reg        *Registry
	status     StatusSnapshot
	haveStatus bool
	mode       string
	label      string
	subs       map[int]chan StatusSnapshot
	nextSub    int
	closed     bool
}

// NewTelemetry returns an empty hub.
func NewTelemetry() *Telemetry {
	return &Telemetry{reg: NewRegistry(), subs: make(map[int]chan StatusSnapshot)}
}

// SetLabels sets default Mode/Label values stamped onto published
// snapshots that leave them empty — the workload engines (core, dist)
// don't know what the CLI called them.
func (t *Telemetry) SetLabels(mode, label string) {
	t.mu.Lock()
	t.mode, t.label = mode, label
	t.mu.Unlock()
}

// PublishStatus implements StatusSink: it replaces the snapshot and
// broadcasts it to /events subscribers. Slow subscribers drop snapshots
// rather than block the publisher (the terminal snapshot is re-sent on
// subscribe, so nothing load-bearing is lost).
func (t *Telemetry) PublishStatus(s StatusSnapshot) {
	t.mu.Lock()
	if s.Mode == "" {
		s.Mode = t.mode
	}
	if s.Label == "" {
		s.Label = t.label
	}
	t.status = s
	t.haveStatus = true
	for _, ch := range t.subs {
		select {
		case ch <- s:
		default:
		}
	}
	t.mu.Unlock()
}

// ObserveRun implements StatusSink: it folds one completed run's registry
// into the hub. Live-surface merges are commutative on counts; the float
// histogram sums may differ in the last ulps across completion orders,
// which the live view (unlike the byte-stable campaign exports) tolerates.
func (t *Telemetry) ObserveRun(reg *Registry) {
	if reg == nil {
		return
	}
	t.mu.Lock()
	t.reg.Merge(reg)
	t.mu.Unlock()
}

// Status returns the latest snapshot and whether one has been published.
func (t *Telemetry) Status() (StatusSnapshot, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status, t.haveStatus
}

// SnapshotRegistry returns a deep copy of the merged live registry, safe
// to export without holding the hub lock.
func (t *Telemetry) SnapshotRegistry() *Registry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reg.Clone()
}

// Subscribe registers an /events listener: the returned channel receives
// every subsequent snapshot (dropping under backpressure) and closes when
// the hub shuts down. cancel unregisters; it is idempotent and safe after
// CloseStreams.
func (t *Telemetry) Subscribe() (<-chan StatusSnapshot, func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ch := make(chan StatusSnapshot, 8)
	if t.closed {
		close(ch)
		return ch, func() {}
	}
	id := t.nextSub
	t.nextSub++
	t.subs[id] = ch
	return ch, func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		if _, ok := t.subs[id]; ok {
			delete(t.subs, id)
			close(ch)
		}
	}
}

// CloseStreams closes every subscriber channel and refuses new ones — the
// server shutdown path, which must unblock in-flight /events handlers so
// http.Server.Shutdown can drain.
func (t *Telemetry) CloseStreams() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	for id, ch := range t.subs {
		delete(t.subs, id)
		close(ch)
	}
}
