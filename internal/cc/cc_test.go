package cc

import (
	"testing"
	"testing/quick"
	"time"
)

func TestStaticController(t *testing.T) {
	s := NewStatic(25e6)
	if got := s.TargetBitrate(0); got != 25e6 {
		t.Errorf("TargetBitrate = %v", got)
	}
	if got := s.PacingRate(0); got != 25e6*1.5 {
		t.Errorf("PacingRate = %v", got)
	}
	if !s.CanSend(0, 1e6) {
		t.Error("static controller must always allow sending")
	}
	if s.Name() != "static" {
		t.Errorf("Name = %q", s.Name())
	}
	s.OnPacketSent(SentPacket{})   // must not panic
	s.OnFeedback(time.Second, nil) // must not panic
}

func TestPacerSpacing(t *testing.T) {
	var p Pacer
	const rate = 8e6 // 1 MB/s → 1000-byte packet = 1 ms
	t0 := p.Next(0, 1000, rate)
	t1 := p.Next(0, 1000, rate)
	t2 := p.Next(0, 1000, rate)
	if t0 != 0 {
		t.Errorf("first send at %v, want 0", t0)
	}
	if t1 != time.Millisecond || t2 != 2*time.Millisecond {
		t.Errorf("spacing = %v, %v; want 1ms, 2ms", t1, t2)
	}
}

func TestPacerIdleAfterGap(t *testing.T) {
	var p Pacer
	p.Next(0, 1000, 8e6)
	if !p.Idle(10 * time.Millisecond) {
		t.Error("pacer should be idle after the budget elapses")
	}
	at := p.Next(10*time.Millisecond, 1000, 8e6)
	if at != 10*time.Millisecond {
		t.Errorf("send after idle gap at %v, want now", at)
	}
}

func TestPacerZeroRateSendsImmediately(t *testing.T) {
	var p Pacer
	if at := p.Next(5*time.Millisecond, 1e9, 0); at != 5*time.Millisecond {
		t.Errorf("zero-rate send at %v", at)
	}
	if at := p.Next(5*time.Millisecond, 1e9, 0); at != 5*time.Millisecond {
		t.Errorf("second zero-rate send at %v", at)
	}
}

// Property: pacer departure times are non-decreasing and never before now.
func TestPropertyPacerMonotone(t *testing.T) {
	f := func(sizes []uint16, rate uint32) bool {
		var p Pacer
		r := float64(rate%100_000_000) + 1
		last := time.Duration(-1)
		now := time.Duration(0)
		for i, s := range sizes {
			now = time.Duration(i) * 100 * time.Microsecond
			at := p.Next(now, int(s), r)
			if at < now || at < last {
				return false
			}
			last = at
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSendQueueFIFO(t *testing.T) {
	var q SendQueue
	for i := 0; i < 5; i++ {
		q.Push(Item{Data: i, Size: 100, Enqueued: time.Duration(i) * time.Millisecond})
	}
	if q.items.Len() != 5 || queuedBytes(&q) != 500 {
		t.Fatalf("Len=%d Bytes=%d", q.items.Len(), queuedBytes(&q))
	}
	for i := 0; i < 5; i++ {
		it, ok := q.Pop()
		if !ok || it.Data.(int) != i {
			t.Fatalf("pop %d = %v, %v", i, it.Data, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("pop from empty queue should fail")
	}
	if queuedBytes(&q) != 0 {
		t.Errorf("Bytes = %d after drain", queuedBytes(&q))
	}
}

func TestSendQueueDelay(t *testing.T) {
	var q SendQueue
	if q.Delay(time.Second) != 0 {
		t.Error("empty queue delay should be 0")
	}
	q.Push(Item{Size: 1, Enqueued: 100 * time.Millisecond})
	if got := q.Delay(350 * time.Millisecond); got != 250*time.Millisecond {
		t.Errorf("Delay = %v", got)
	}
	if got := q.Delay(50 * time.Millisecond); got != 0 {
		t.Errorf("Delay before enqueue = %v, want clamp to 0", got)
	}
}

func TestSendQueueClear(t *testing.T) {
	var q SendQueue
	q.Push(Item{Size: 7})
	q.Push(Item{Size: 3})
	if n := q.Clear(); n != 2 {
		t.Errorf("Clear = %d, want 2", n)
	}
	if q.items.Len() != 0 || queuedBytes(&q) != 0 {
		t.Errorf("after Clear: Len=%d Bytes=%d", q.items.Len(), queuedBytes(&q))
	}
}

// TestSendQueueClearKeepsNothing: a cleared queue's backing array holds no
// reference to a discarded packet, as a popped slot holds none.
func TestSendQueueClearKeepsNothing(t *testing.T) {
	var q SendQueue
	for i := 0; i < 10; i++ {
		q.Push(Item{Data: new(int), Size: 10})
	}
	q.Pop()
	q.Clear()
	for i := 0; i < q.items.Cap(); i++ {
		if q.items.At(i).Data != nil {
			t.Fatalf("slot %d still holds a discarded item's data", i)
		}
	}
}

// TestSendQueueClearDiscards: Clear hands every item it drops, in queue
// order, to Discard — and none that Pop already returned.
func TestSendQueueClearDiscards(t *testing.T) {
	var q SendQueue
	var got []int
	q.Discard = func(it Item) { got = append(got, it.Size) }
	for i := 0; i < 5; i++ {
		q.Push(Item{Size: 100 + i})
	}
	q.Pop()
	if n := q.Clear(); n != 4 || len(got) != 4 || got[0] != 101 || got[3] != 104 {
		t.Fatalf("Clear dropped %d and discarded %v, want 4: items 101..104", n, got)
	}
}

func TestSendQueueCompaction(t *testing.T) {
	var q SendQueue
	// Push and pop enough to trigger internal compaction, then verify
	// order is preserved.
	for round := 0; round < 10; round++ {
		for i := 0; i < 100; i++ {
			q.Push(Item{Data: round*100 + i, Size: 1})
		}
		for i := 0; i < 100; i++ {
			it, ok := q.Pop()
			if !ok || it.Data.(int) != round*100+i {
				t.Fatalf("round %d item %d: got %v ok=%v", round, i, it.Data, ok)
			}
		}
	}
}

// Property: queue byte accounting is exact under any push/pop/discard mix.
func TestPropertySendQueueAccounting(t *testing.T) {
	f := func(ops []uint8) bool {
		var q SendQueue
		want := 0
		wantLen := 0
		now := time.Duration(0)
		for _, op := range ops {
			now += time.Millisecond
			switch op % 3 {
			case 0:
				size := int(op)%500 + 1
				q.Push(Item{Size: size, Enqueued: now})
				want += size
				wantLen++
			case 1:
				if it, ok := q.Pop(); ok {
					want -= it.Size
					wantLen--
				}
			case 2:
				cutoff := now - 5*time.Millisecond
				for {
					it, ok := q.Peek()
					if !ok || it.Enqueued >= cutoff {
						break
					}
					q.Pop()
					want -= it.Size
					wantLen--
				}
			}
			if queuedBytes(&q) != want || q.items.Len() != wantLen {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRepairAwareAdjustsTarget(t *testing.T) {
	s := NewStatic(25e6)
	if got := s.TargetBitrate(0); got != 25e6 {
		t.Fatalf("target before probe: %v", got)
	}
	s.SetRepairSpend(func(time.Duration) float64 { return 3e6 })
	if got := s.TargetBitrate(0); got != 22e6 {
		t.Fatalf("target with 3 Mbps repair spend: %v", got)
	}
	// The floor holds even under a pathological spend report.
	s.SetRepairSpend(func(time.Duration) float64 { return 40e6 })
	if got := s.TargetBitrate(0); got != 12.5e6 {
		t.Fatalf("floored target: %v", got)
	}
	s.SetRepairSpend(nil)
	if got := s.TargetBitrate(0); got != 25e6 {
		t.Fatalf("target after detach: %v", got)
	}
}

// TestSendQueueReuse: a queue Reset after a use starts empty on the array
// it grew, zeroed — none of its packets stay reachable through it — and
// queues as a fresh one does.
func TestSendQueueReuse(t *testing.T) {
	var q SendQueue
	for i := 0; i < 1000; i++ {
		q.Push(Item{Data: i, Size: 100})
	}
	q.Pop()
	grown := q.items.Cap()
	if grown < 1000 {
		t.Fatalf("the queue grew to %d slots, want 1000 or more", grown)
	}
	q.Reset()
	if q.items.Len() != 0 || queuedBytes(&q) != 0 || q.items.Cap() != grown {
		t.Fatalf("after Reset: %d queued, %d bytes, %d slots (grown to %d)", q.items.Len(), queuedBytes(&q), q.items.Cap(), grown)
	}
	for i := 0; i < grown; i++ {
		if q.items.At(i).Data != nil {
			t.Fatal("the reset array still holds a packet of the queue's last use")
		}
	}
	for i := 0; i < 10; i++ {
		q.Push(Item{Data: i, Size: 10 + i})
	}
	for i := 0; i < 10; i++ {
		if it, ok := q.Pop(); !ok || it.Data != i || it.Size != 10+i {
			t.Fatalf("pop %d: %+v, %v", i, it, ok)
		}
	}
}

// queuedBytes is the wire bytes q holds.
func queuedBytes(q *SendQueue) int {
	n := 0
	for i := 0; i < q.items.Len(); i++ {
		n += q.items.At(i).Size
	}
	return n
}
