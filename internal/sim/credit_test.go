package sim

import (
	"fmt"
	"testing"
	"unsafe"
)

// straddleNames returns two event names whose ranks fall below and above the
// rank of pivot: at equal tick and priority, lo dispatches before pivot and
// hi after it.
func straddleNames(pivot string) (lo, hi string) {
	for i := 0; lo == "" || hi == ""; i++ {
		n := fmt.Sprintf("ev%d", i)
		switch {
		case lo == "" && nameRank(n) < nameRank(pivot):
			lo = n
		case hi == "" && nameRank(n) > nameRank(pivot):
			hi = n
		}
	}
	return lo, hi
}

// parkedTicker runs a ticker's first edge (tick 0) and parks it there: the
// callback returns false and nothing reschedules the event. Edges from 1000
// on are owed.
func parkedTicker(t *testing.T, q *EventQueue) *Ticker {
	t.Helper()
	cd := NewClockDomain("c", q, 1_000_000_000)
	tk := NewTicker("dev.tick", cd, PriDefault, func(uint64) bool { return false })
	tk.SetOwner(q.Owner("dev", "tick"))
	tk.Start()
	q.RunUntil(1)
	if tk.Cycle() != 1 || tk.Running() {
		t.Fatalf("ticker not parked after its first edge: cycle %d, running %v", tk.Cycle(), tk.Running())
	}
	return tk
}

// TestTickerCreditOrdersAgainstTheTick is the ordering rule of Ticker.Credit,
// case by case: whether the edge at the current tick is owed depends on
// whether a pending edge event would already have been dispatched — read off
// the executing event's key, corrected for same-tick children and for a tick
// RunUntil has finished.
func TestTickerCreditOrdersAgainstTheTick(t *testing.T) {
	lo, hi := straddleNames("dev.tick")
	const edge = 5000 // edges 1000..5000 are owed: four before it, and itself
	for _, tc := range []struct {
		name string
		// arm schedules what calls credit at the edge.
		arm  func(q *EventQueue, credit func())
		want uint64
	}{
		{"from an event ordered before the tick", func(q *EventQueue, credit func()) {
			q.ScheduleOneShot(lo, edge, credit)
		}, 4},
		{"from an event ordered after the tick", func(q *EventQueue, credit func()) {
			q.ScheduleOneShot(hi, edge, credit)
		}, 5},
		{"from a higher priority", func(q *EventQueue, credit func()) {
			q.Schedule(NewEventPri(hi, PriCPU, credit), edge)
		}, 4},
		{"from a lower priority", func(q *EventQueue, credit func()) {
			q.Schedule(NewEventPri(lo, PriStats, credit), edge)
		}, 5},
		// DESIGN.md §7.4's trap: the child orders before the tick, but its
		// parent has already run, and the tick would have run before the
		// parent.
		{"from an early-ordered child of a late-ordered event", func(q *EventQueue, credit func()) {
			q.ScheduleOneShot(hi, edge, func() { q.ScheduleOneShot(lo, q.Now(), credit) })
		}, 5},
		{"from a grandchild, two same-tick hops below a late-ordered event", func(q *EventQueue, credit func()) {
			q.ScheduleOneShot(hi, edge, func() {
				q.ScheduleOneShot(lo, q.Now(), func() { q.ScheduleOneShot(lo, q.Now(), credit) })
			})
		}, 5},
		{"from an early-ordered child of an early-ordered event", func(q *EventQueue, credit func()) {
			q.ScheduleOneShot(lo, edge, func() { q.ScheduleOneShot(lo, q.Now(), credit) })
		}, 4},
		{"from a late-ordered child of an early-ordered event", func(q *EventQueue, credit func()) {
			q.ScheduleOneShot(lo, edge, func() { q.ScheduleOneShot(hi, q.Now(), credit) })
		}, 5},
		{"a same-tick child scheduled on an earlier tick does not count", func(q *EventQueue, credit func()) {
			q.ScheduleOneShot(hi, edge-1000, func() { q.ScheduleOneShot(lo, q.Now(), func() {}) })
			q.ScheduleOneShot(lo, edge, credit)
		}, 4},
		{"between edges", func(q *EventQueue, credit func()) {
			q.ScheduleOneShot(hi, edge-1, credit)
		}, 4},
	} {
		for _, ref := range []bool{false, true} {
			q := NewEventQueue()
			if ref {
				q = NewReferenceEventQueue()
			}
			tk := parkedTicker(t, q)
			got := ^uint64(0)
			tc.arm(q, func() { got = tk.Credit(1000) })
			q.RunUntil(edge + 999)
			if got != tc.want {
				t.Errorf("%s (reference queue %v): credited %d edges, want %d", tc.name, ref, got, tc.want)
			}
		}
	}
}

// TestTickerCreditOutsideDispatch: a RunUntil that returns normally has
// finished its last tick, the elided edge included; one that an event ended
// with ExitSimLoop has not.
func TestTickerCreditOutsideDispatch(t *testing.T) {
	lo, _ := straddleNames("dev.tick")

	q := NewEventQueue()
	tk := parkedTicker(t, q)
	q.RunUntil(3000)
	if n := tk.Credit(1000); n != 3 {
		t.Errorf("after RunUntil(3000) with nothing pending: credited %d edges, want 3", n)
	}
	// A second run at the same tick, for an event scheduled from outside,
	// still sees the tick as finished.
	got := ^uint64(0)
	q.ScheduleOneShot(lo, 3000, func() { got = tk.Credit(4000) })
	q.RunUntil(3000)
	if got != 0 {
		t.Errorf("edge 4000 credited %d times at tick 3000", got)
	}
	q.RunUntil(3500)
	if n := tk.Credit(4000); n != 0 {
		t.Errorf("credited %d edges before the next one", n)
	}

	q = NewEventQueue()
	tk = parkedTicker(t, q)
	q.ScheduleOneShot(lo, 3000, func() { q.ExitSimLoop("mid-tick") })
	q.RunUntil(9000)
	if q.Now() != 3000 {
		t.Fatalf("exit left the queue at %d", q.Now())
	}
	if n := tk.Credit(1000); n != 2 {
		t.Errorf("after an exit from an event ordered before the tick: credited %d edges, want 2", n)
	}
}

// TestCreditKeepsTheMachineCounts: credited edges move the cycle count, the
// dispatch count and the profiler's exact per-owner count as running them
// would, and Elided says they did not run.
func TestCreditKeepsTheMachineCounts(t *testing.T) {
	run := func(park bool) (cycle, dispatched, elided, owner uint64) {
		q := NewEventQueue()
		p := q.AttachProfiler(0)
		cd := NewClockDomain("c", q, 1_000_000_000)
		tk := NewTicker("dev.tick", cd, PriDefault, func(uint64) bool { return !park })
		id := q.Owner("dev", "tick")
		tk.SetOwner(id)
		tk.Start()
		q.ScheduleOneShot("other", 2500, func() {})
		q.RunUntil(7000)
		if park {
			tk.Credit(1000)
			tk.MoveTo(8000)
		}
		q.RunUntil(8000)
		return tk.Cycle(), q.Dispatched(), q.Elided(), p.counts[id]
	}
	c0, d0, e0, o0 := run(false)
	c1, d1, e1, o1 := run(true)
	if c0 != c1 || d0 != d1 || o0 != o1 {
		t.Errorf("free-running: cycle %d dispatched %d owner events %d; parked and credited: %d %d %d", c0, d0, o0, c1, d1, o1)
	}
	if e0 != 0 || e1 != 7 {
		t.Errorf("elided %d free-running and %d parked, want 0 and 7", e0, e1)
	}
}

// TestEventQueueFillsItsSizeClass pins what the fields this file's machinery
// added were fitted into: a queue with pointers in it is allocated with an
// 8-byte header, and 2 296 + 8 is the 2 304-byte size class to the byte. A
// field more and every soc.Build allocates from the 2 688-byte class.
func TestEventQueueFillsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(EventQueue{}); size > 2296 {
		t.Errorf("EventQueue is %d bytes; over 2296 it leaves the 2304-byte allocator size class", size)
	}
}
