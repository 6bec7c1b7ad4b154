package rtp

import (
	"strings"
	"testing"
)

// TestDatagramPoolRecycles: a released slot is the next one Get hands out
// (outside the poison build), empty but keeping its grown backing array, and
// the pool counts its slots, its held datagrams and their peak.
func TestDatagramPoolRecycles(t *testing.T) {
	var pool DatagramPool
	held := make([]*Datagram, DatagramBlock+1)
	for i := range held {
		held[i] = pool.Get()
	}
	if st := pool.Stats(); st != (PoolStats{Slots: 2 * DatagramBlock, Live: DatagramBlock + 1, PeakLive: DatagramBlock + 1}) {
		t.Fatalf("after %d Gets: %+v", len(held), st)
	}
	for _, d := range held {
		d.Release()
	}
	if st := pool.Stats(); st.Live != 0 || st.PeakLive != DatagramBlock+1 {
		t.Fatalf("after releasing every slot: %+v", st)
	}
	if poisonReleased {
		return // released slots are never reused
	}
	d := pool.Get()
	d.B, _ = (&SenderReport{SSRC: 1}).AppendTo(d.B)
	grown := &d.B[:1][0]
	d.Release()
	again := pool.Get()
	if again != d || len(again.B) != 0 || cap(again.B) < senderReportSize || &again.B[:1][0] != grown {
		t.Errorf("Get after a Release: slot %p (released %p), %d bytes, cap %d", again, d, len(again.B), cap(again.B))
	}
	if st := pool.Stats(); st.Slots != 2*DatagramBlock {
		t.Errorf("recycling grew the pool: %+v", st)
	}
}

// TestDatagramDoubleReleasePanics: the one-holder rule's guard, in every
// build.
func TestDatagramDoubleReleasePanics(t *testing.T) {
	var pool DatagramPool
	d := pool.Get()
	d.Release()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "released datagram") {
			t.Errorf("second Release: recovered %v, want the released-datagram panic", r)
		}
	}()
	d.Release()
}

// TestDatagramPoisonedAfterRelease: built with rtppoison, a holder that
// reads a datagram after releasing it finds bytes no RTCP parser accepts,
// and the slot is never handed out again.
func TestDatagramPoisonedAfterRelease(t *testing.T) {
	if !poisonReleased {
		t.Skip("needs -tags rtppoison")
	}
	var pool DatagramPool
	d := pool.Get()
	d.B, _ = (&ReceiverReport{SSRC: 1, Blocks: []ReportBlock{{SSRC: 2}}}).AppendTo(d.B)
	stale := d.B
	d.Release()
	if _, _, ok := PeekRTCP(stale); ok {
		t.Errorf("a released datagram still passes PeekRTCP: % x", stale)
	}
	var rr ReceiverReport
	if rr.Unmarshal(stale) == nil {
		t.Error("a released datagram still parses as a receiver report")
	}
	for i := 0; i < 2*DatagramBlock; i++ {
		if pool.Get() == d {
			t.Fatal("a poisoned slot was handed out again")
		}
	}
}
