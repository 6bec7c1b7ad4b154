package obs

import (
	"testing"
)

// TestTelemetryLabelStamping: empty Mode/Label pick up the hub defaults;
// producer-set values win.
func TestTelemetryLabelStamping(t *testing.T) {
	tel := NewTelemetry()
	tel.SetLabels("campaign", "urban-gcc")
	tel.PublishStatus(StatusSnapshot{RunsDone: 1})
	st, ok := tel.Status()
	if !ok {
		t.Fatal("no status after publish")
	}
	if st.Mode != "campaign" || st.Label != "urban-gcc" {
		t.Errorf("defaults not stamped: %+v", st)
	}
	tel.PublishStatus(StatusSnapshot{Mode: "fleet", Label: "other"})
	if st, _ := tel.Status(); st.Mode != "fleet" || st.Label != "other" {
		t.Errorf("producer labels overridden: %+v", st)
	}
}

// TestTelemetryObserveRunIsolation: ObserveRun merges a deep fold — later
// mutation of the hub's snapshot never leaks back, and snapshots of an
// unchanged hub are byte-stable (satellite guarantee for /metrics scrapes).
func TestTelemetryObserveRunIsolation(t *testing.T) {
	tel := NewTelemetry()
	reg := NewRegistry()
	reg.Add("runs", 1)
	reg.LogHistogram("frame_delay_ms").Add(20)
	tel.ObserveRun(reg)
	tel.ObserveRun(nil) // no-op, not a panic

	snap := tel.SnapshotRegistry()
	if snap.Counter("runs") != 1 {
		t.Fatalf("snapshot counter = %d, want 1", snap.Counter("runs"))
	}
	// Mutating the snapshot must not reach the hub.
	snap.Add("runs", 100)
	snap.LogHistogram("frame_delay_ms").Add(1)
	again := tel.SnapshotRegistry()
	if again.Counter("runs") != 1 {
		t.Errorf("snapshot mutation leaked into the hub: runs = %d", again.Counter("runs"))
	}
	if again.LogHistogram("frame_delay_ms").N() != 1 {
		t.Errorf("snapshot mutation leaked into the hub histogram: count = %d",
			again.LogHistogram("frame_delay_ms").N())
	}
}

// TestTelemetrySubscribe: subscribers receive published snapshots, slow ones
// drop rather than block, cancel is idempotent, and CloseStreams closes every
// channel.
func TestTelemetrySubscribe(t *testing.T) {
	tel := NewTelemetry()
	ch, cancel := tel.Subscribe()
	tel.PublishStatus(StatusSnapshot{RunsDone: 1})
	if st := <-ch; st.RunsDone != 1 {
		t.Errorf("subscriber got %+v", st)
	}

	// Overflow the buffer: publishes beyond the channel capacity drop
	// instead of blocking this goroutine forever.
	for i := 0; i < 50; i++ {
		tel.PublishStatus(StatusSnapshot{RunsDone: i})
	}
	drained := 0
	for {
		select {
		case <-ch:
			drained++
			continue
		default:
		}
		break
	}
	if drained == 0 || drained > 8 {
		t.Errorf("drained %d buffered snapshots, want 1..8", drained)
	}

	cancel()
	cancel() // idempotent
	if _, ok := <-ch; ok {
		t.Error("channel still open after cancel")
	}

	ch2, cancel2 := tel.Subscribe()
	tel.CloseStreams()
	tel.CloseStreams() // idempotent
	if _, ok := <-ch2; ok {
		t.Error("channel still open after CloseStreams")
	}
	cancel2() // safe after CloseStreams
	// New subscriptions after shutdown come back pre-closed.
	ch3, _ := tel.Subscribe()
	if _, ok := <-ch3; ok {
		t.Error("post-shutdown subscription channel not closed")
	}
	// Publishing after shutdown is harmless.
	tel.PublishStatus(StatusSnapshot{RunsDone: 99})
}
