package bond

import (
	"testing"
	"time"
)

// routeLoad is the sender side of a steady 1 kpkt/s bonded stream: every
// packet is routed and each copy's delivery fed back to the path monitor,
// with the health tick on its 50 ms cadence.
type routeLoad struct {
	m      *Manager
	now    time.Duration
	copies int
}

func newRouteLoad(p Policy) *routeLoad {
	l := &routeLoad{m: NewManager(Config{Policy: p})}
	for i := 0; i < 2000; i++ {
		l.step()
	}
	return l
}

func (l *routeLoad) step() {
	l.now += time.Millisecond
	set := l.m.Route(l.now, 1200)
	for i := 0; i < NumPaths; i++ {
		if set.Has(i) {
			l.m.ObserveDelivery(i, time.Duration(40+15*i)*time.Millisecond, 1200)
			l.copies++
		}
	}
	if l.now%(50*time.Millisecond) == 0 {
		l.m.Tick(l.now)
	}
}

// BenchmarkBondRoute is one media packet through the bond scheduler: the
// routing decision, the delivery observation of each copy and a fiftieth of
// a health tick.
func BenchmarkBondRoute(b *testing.B) {
	for _, p := range Policies() {
		b.Run(p.String(), func(b *testing.B) {
			l := newRouteLoad(p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.step()
			}
		})
	}
}

// TestRouteSteadyStateAllocations pins routing at zero allocations per
// packet under every policy: path sets are bitmasks and the path state is
// held by value.
func TestRouteSteadyStateAllocations(t *testing.T) {
	for _, p := range Policies() {
		l := newRouteLoad(p)
		if n := testing.AllocsPerRun(5000, l.step); n != 0 {
			t.Errorf("%v: Route+ObserveDelivery+Tick allocate %.3f times per packet, want 0", p, n)
		}
		if l.copies < 7000 {
			t.Errorf("%v: %d copies routed for 7000 packets", p, l.copies)
		}
	}
}

// reorderLoad is the receiver side of a 1 kpkt/s stream striped over two
// paths 12 ms apart: even sequence numbers arrive on time, odd ones twelve
// packets late, one packet in 101 never arrives (the deadline releases past
// it) and one in 97 arrives twice. The packets are made once, so a step
// allocates only what the buffer itself does.
type reorderLoad struct {
	r        *Reorder
	pkts     []int64
	n        int64
	now      time.Duration
	released int
	copies   int // second copies inserted
	taken    int // of them, taken by the buffer
}

func newReorderLoad() *reorderLoad {
	l := &reorderLoad{pkts: make([]int64, 1<<12)}
	l.r = NewReorder(0, 0, func(interface{}, time.Duration) { l.released++ })
	for i := 0; i < 5000; i++ {
		l.step()
	}
	return l
}

func (l *reorderLoad) step() {
	l.now += time.Millisecond
	l.n++
	ext := l.n
	if ext%2 == 1 {
		ext -= 12
	}
	if ext > 0 && ext%101 != 0 {
		l.r.Insert(ext, &l.pkts[ext%int64(len(l.pkts))], l.now)
		if ext%97 == 0 {
			l.copies++
			if l.r.Insert(ext, &l.pkts[ext%int64(len(l.pkts))], l.now) {
				l.taken++
			}
		}
	}
	if l.now%(50*time.Millisecond) == 0 {
		l.r.Tick(l.now)
	}
}

// BenchmarkBondReorder is one arrival through the reorder buffer: the sorted
// insert, the in-order release it completes and a fiftieth of a deadline
// tick.
func BenchmarkBondReorder(b *testing.B) {
	l := newReorderLoad()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.step()
	}
}

// TestReorderSteadyStateAllocations pins the buffer at zero allocations per
// arrival once warm: the pending slice slides down in place and packets are
// carried as pointers.
func TestReorderSteadyStateAllocations(t *testing.T) {
	l := newReorderLoad()
	if n := testing.AllocsPerRun(5000, l.step); n != 0 {
		t.Errorf("Insert+Tick allocate %.3f times per arrival, want 0", n)
	}
	// The stream starts at 2 (its first odd packet, 1, arrives late):
	// every slot since was released once or skipped by a deadline release,
	// one slot each, and a second copy is refused — buffered, or late once
	// released — never kept.
	r := l.r
	if int64(l.released)+r.DeadlineReleases != r.next-2 || r.DeadlineReleases == 0 ||
		r.CapReleases != 0 || l.copies == 0 || l.taken != 0 || len(r.buf) == 0 {
		t.Errorf("load is not the steady state it claims: %d released, next %d, %d buffered, %d deadline releases, %d cap releases, %d of %d second copies taken, %d late",
			l.released, r.next, len(r.buf), r.DeadlineReleases, r.CapReleases, l.taken, l.copies, r.Late)
	}
}
