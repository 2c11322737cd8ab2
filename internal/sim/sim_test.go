package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	q := NewEventQueue()
	var got []int
	q.ScheduleFunc("c", 30, func() { got = append(got, 3) })
	q.ScheduleFunc("a", 10, func() { got = append(got, 1) })
	q.ScheduleFunc("b", 20, func() { got = append(got, 2) })
	q.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if q.Now() != 30 {
		t.Fatalf("Now() = %d, want 30", q.Now())
	}
}

func TestSameTickPriorityAndFIFO(t *testing.T) {
	q := NewEventQueue()
	var got []string
	q.Schedule(NewEventPri("low", 10, func() { got = append(got, "low") }), 5)
	q.Schedule(NewEventPri("high", -10, func() { got = append(got, "high") }), 5)
	// Same-name events at the same (tick, priority) dispatch FIFO; events with
	// different names order by name rank, independent of insertion order.
	q.ScheduleOneShot("fifo", 5, func() { got = append(got, "f1") })
	q.ScheduleOneShot("fifo", 5, func() { got = append(got, "f2") })
	q.Run()
	want := []string{"high", "f1", "f2", "low"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestSameTickRankOrder pins the cross-name arbitration contract: same-tick,
// same-priority events of different names dispatch in name-rank order no
// matter which order they were scheduled in — the property that makes
// dispatch order depend on component names, not on construction order.
func TestSameTickRankOrder(t *testing.T) {
	names := []string{"alpha", "beta", "gamma", "delta"}
	runIn := func(order []int) []string {
		q := NewEventQueue()
		var got []string
		for _, i := range order {
			name := names[i]
			q.Schedule(NewEvent(name, func() { got = append(got, name) }), 5)
		}
		q.Run()
		return got
	}
	a := runIn([]int{0, 1, 2, 3})
	b := runIn([]int{3, 2, 1, 0})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("dispatch order depends on insertion order: %v vs %v", a, b)
		}
	}
	for i := 1; i < len(a); i++ {
		if nameRank(a[i-1]) >= nameRank(a[i]) {
			t.Fatalf("dispatch order %v does not follow name rank", a)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	q := NewEventQueue()
	q.ScheduleFunc("adv", 100, func() {})
	q.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	q.ScheduleFunc("late", 50, func() {})
}

func TestDoubleSchedulePanics(t *testing.T) {
	q := NewEventQueue()
	e := NewEvent("e", func() {})
	q.Schedule(e, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("double schedule did not panic")
		}
	}()
	q.Schedule(e, 20)
}

func TestDescheduleAndReschedule(t *testing.T) {
	q := NewEventQueue()
	fired := 0
	e := NewEvent("e", func() { fired++ })
	q.Schedule(e, 10)
	q.Deschedule(e)
	if e.Scheduled() {
		t.Fatal("event still scheduled after Deschedule")
	}
	q.Reschedule(e, 40)
	q.Run()
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
	if q.Now() != 40 {
		t.Fatalf("Now() = %d, want 40", q.Now())
	}
}

func TestRunUntil(t *testing.T) {
	q := NewEventQueue()
	var got []Tick
	for _, tk := range []Tick{10, 20, 30, 40} {
		tk := tk
		q.ScheduleFunc("e", tk, func() { got = append(got, tk) })
	}
	q.RunUntil(25)
	if len(got) != 2 {
		t.Fatalf("RunUntil(25) ran %d events, want 2", len(got))
	}
	if q.Now() != 25 {
		t.Fatalf("Now() = %d, want 25", q.Now())
	}
	q.RunUntil(1000)
	if len(got) != 4 {
		t.Fatalf("total %d events, want 4", len(got))
	}
	if q.Now() != 1000 {
		t.Fatalf("Now() = %d, want 1000 after drain", q.Now())
	}
}

func TestExitSimLoop(t *testing.T) {
	q := NewEventQueue()
	ran := 0
	q.ScheduleFunc("one", 10, func() { ran++; q.ExitSimLoop("checkpoint") })
	q.ScheduleFunc("two", 20, func() { ran++ })
	reason := q.Run()
	if reason != "checkpoint" || ran != 1 {
		t.Fatalf("reason=%q ran=%d, want checkpoint/1", reason, ran)
	}
	q.ClearExit()
	if r := q.Run(); r != "" || ran != 2 {
		t.Fatalf("after ClearExit: reason=%q ran=%d", r, ran)
	}
}

func TestSelfRescheduling(t *testing.T) {
	q := NewEventQueue()
	n := 0
	var e *Event
	e = NewEvent("periodic", func() {
		n++
		if n < 5 {
			q.Schedule(e, q.Now()+100)
		}
	})
	q.Schedule(e, 0)
	q.Run()
	if n != 5 || q.Now() != 400 {
		t.Fatalf("n=%d now=%d, want 5/400", n, q.Now())
	}
}

// Property: events always dispatch in nondecreasing time order, regardless of
// insertion order.
func TestQuickOrdering(t *testing.T) {
	f := func(times []uint16) bool {
		q := NewEventQueue()
		var got []Tick
		for _, tv := range times {
			tk := Tick(tv)
			q.ScheduleFunc("e", tk, func() { got = append(got, q.Now()) })
		}
		q.Run()
		if len(got) != len(times) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving schedule/deschedule operations never corrupts the
// heap; the set of dispatched events equals the set left scheduled.
func TestQuickScheduleDeschedule(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 100; iter++ {
		q := NewEventQueue()
		live := map[*Event]bool{}
		fired := 0
		for i := 0; i < 50; i++ {
			e := NewEvent("e", func() { fired++ })
			q.Schedule(e, Tick(rng.Intn(1000)))
			live[e] = true
		}
		removed := 0
		for e := range live {
			if rng.Intn(2) == 0 {
				q.Deschedule(e)
				removed++
			}
		}
		q.Run()
		if fired != 50-removed {
			t.Fatalf("fired=%d want %d", fired, 50-removed)
		}
	}
}

func TestClockDomain(t *testing.T) {
	q := NewEventQueue()
	cd := NewClockDomain("cpu", q, 2_000_000_000) // 2 GHz
	if cd.Period() != 500 {
		t.Fatalf("period = %d, want 500", cd.Period())
	}
	if cd.Cycles(10) != 5000 {
		t.Fatalf("Cycles(10) = %d", cd.Cycles(10))
	}
	q.ScheduleFunc("adv", 750, func() {})
	q.Run()
	if cd.CurCycle() != 1 {
		t.Fatalf("CurCycle = %d, want 1", cd.CurCycle())
	}
	if e := cd.NextCycle(); e != 1000 {
		t.Fatalf("NextCycle = %d, want 1000", e)
	}
	if e := cd.ClockEdge(0); e != 1000 {
		t.Fatalf("ClockEdge(0) off-edge = %d, want 1000", e)
	}
	if e := cd.ClockEdge(2); e != 2000 {
		t.Fatalf("ClockEdge(2) = %d, want 2000", e)
	}
}

func TestClockEdgeOnEdge(t *testing.T) {
	q := NewEventQueue()
	cd := NewClockDomain("c", q, 1_000_000_000) // 1 GHz, 1000 ps
	q.ScheduleFunc("adv", 3000, func() {})
	q.Run()
	if e := cd.ClockEdge(0); e != 3000 {
		t.Fatalf("ClockEdge(0) on-edge = %d, want 3000", e)
	}
	if e := cd.ClockEdge(1); e != 4000 {
		t.Fatalf("ClockEdge(1) on-edge = %d, want 4000", e)
	}
}

func TestDerivedClock(t *testing.T) {
	q := NewEventQueue()
	cpu := NewClockDomain("cpu", q, 2_000_000_000)
	rtl := cpu.Derived("rtl", 2) // 1 GHz
	if rtl.Period() != 1000 || rtl.Frequency() != 1_000_000_000 {
		t.Fatalf("derived clock wrong: period=%d freq=%d", rtl.Period(), rtl.Frequency())
	}
}

func TestTicker(t *testing.T) {
	q := NewEventQueue()
	cd := NewClockDomain("c", q, 1_000_000_000)
	var cycles []uint64
	tk := NewTicker("t", cd, PriDefault, func(c uint64) bool {
		cycles = append(cycles, c)
		return c < 4
	})
	tk.Start()
	q.Run()
	if len(cycles) != 5 {
		t.Fatalf("ticker fired %d times, want 5", len(cycles))
	}
	for i, c := range cycles {
		if c != uint64(i) {
			t.Fatalf("cycle %d reported as %d", i, c)
		}
	}
	if q.Now() != 4000 {
		t.Fatalf("Now = %d, want 4000", q.Now())
	}
}

func TestTickerStopRestart(t *testing.T) {
	q := NewEventQueue()
	cd := NewClockDomain("c", q, 1_000_000_000)
	n := 0
	tk := NewTicker("t", cd, PriDefault, func(uint64) bool { n++; return true })
	tk.Start()
	q.RunUntil(2500) // ticks at 0, 1000, 2000
	tk.Stop()
	if tk.Running() {
		t.Fatal("ticker running after Stop")
	}
	q.RunUntil(10_000)
	if n != 3 {
		t.Fatalf("ticked %d times, want 3", n)
	}
	tk.Start()
	q.RunUntil(12_000) // 10000(if edge), 11000, 12000
	if n < 5 {
		t.Fatalf("restart did not resume ticking: n=%d", n)
	}
}

func BenchmarkEventDispatch(b *testing.B) {
	q := NewEventQueue()
	var e *Event
	n := 0
	e = NewEvent("bench", func() {
		n++
		if n < b.N {
			q.Schedule(e, q.Now()+1)
		}
	})
	b.ResetTimer()
	q.Schedule(e, 1)
	q.Run()
}
