package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"gem5rtl/internal/conform"
)

// TestCalendarMatchesReferenceHeap drives the calendar queue and the
// reference pure-heap queue through an identical randomized workload —
// near/far scheduling, same-tick bursts with mixed priorities, reschedules,
// deschedules, and events scheduled from inside callbacks — run in slices of
// a quarter window, and requires bit-identical dispatch logs after each.
func TestCalendarMatchesReferenceHeap(t *testing.T) {
	slices := make([]scriptAction, 16)
	for i := range slices {
		slices[i] = scriptAction{op: opRunUntil, off: exact(CalendarWindow / 4)}
	}
	for seed := uint64(1); seed <= 5; seed++ {
		cal, ref := newScriptRig(NewEventQueue), newScriptRig(NewReferenceEventQueue)
		tickerWorkload(cal, seed)
		tickerWorkload(ref, seed)
		t.Run(fmt.Sprint("seed ", seed), func(t *testing.T) {
			if cal, _ := rigs(conform.Script[scriptAction, scriptDigest](t, cal, ref, slices, isSaveAction)); cal.q.Pending() != 0 {
				t.Fatalf("%d events still pending", cal.q.Pending())
			}
		})
	}
}

// tickerWorkload schedules TestCalendarMatchesReferenceHeap's workload on
// r's queue, logging every dispatch in r.
func tickerWorkload(r *scriptRig, seed uint64) {
	q, rng := r.q, conform.NewRNG(seed)
	record := func(tag string) func() { return func() { r.record(tag) } }

	// A mix of standing events that get rescheduled/descheduled mid-run.
	movable := NewEvent("movable", record("movable"))
	doomed := NewEvent("doomed", func() { panic("doomed event must never run") })

	// Ticker-style self-rescheduler that also spawns same-tick and far work.
	var ticks int
	ticker := NewEventPri("ticker", PriCPU, nil)
	ticker.fn = func() {
		ticks++
		r.record("ticker")
		if ticks < 400 {
			q.Schedule(ticker, q.Now()+500)
		}
		// Same-tick work scheduled during dispatch must order behind
		// already-pending same-tick events of equal priority.
		q.ScheduleOneShot("same-tick", q.Now(), record(fmt.Sprintf("same-tick-%d", ticks)))
		if ticks%7 == 0 {
			// Far beyond the calendar window.
			q.ScheduleOneShot("far", q.Now()+2*CalendarWindow+Tick(rng.Intn(1000)),
				record(fmt.Sprintf("far-%d", ticks)))
		}
		if ticks%11 == 0 {
			q.Reschedule(movable, q.Now()+Tick(rng.Intn(3000)))
		}
		if ticks == 50 {
			q.Schedule(doomed, q.Now()+40000)
		}
		if ticks == 60 {
			q.Deschedule(doomed)
		}
		// Random-priority scatter at random offsets, including the exact
		// window boundary where near and far storage meet.
		off := Tick(rng.Intn(int(2 * CalendarWindow)))
		prio := rng.Intn(5) - 2
		q.Schedule(NewEventPri("scatter", prio, record(fmt.Sprintf("scatter-p%d", prio))), q.Now()+off)
	}
	q.Schedule(ticker, 0)
	q.Schedule(movable, 100)
}

// TestDoubleSchedulePanicNamesBothTicks pins the Schedule contract from
// ISSUE 5: re-scheduling a pending event must fail loudly, naming the event
// and both the pending and the requested tick.
func TestDoubleSchedulePanicNamesBothTicks(t *testing.T) {
	q := NewEventQueue()
	e := NewEvent("dup-check", func() {})
	q.Schedule(e, 1234)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double schedule did not panic")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{`"dup-check"`, "1234", "5678"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic message %q missing %q", msg, want)
			}
		}
	}()
	q.Schedule(e, 5678)
}

// TestScheduleOneShotRecycles proves the one-shot freelist reaches steady
// state: after warm-up, scheduling and dispatching one-shots allocates
// nothing.
func TestScheduleOneShotRecycles(t *testing.T) {
	q := NewEventQueue()
	fired := 0
	fn := func() { fired++ }
	// Warm the freelist.
	q.ScheduleOneShot("warm", q.Now()+10, fn)
	q.Run()

	allocs := testing.AllocsPerRun(100, func() {
		q.ScheduleOneShot("steady", q.Now()+10, fn)
		q.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state ScheduleOneShot allocated %.1f objects per run, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("one-shot events never fired")
	}
}

// footprintSink makes the queue under measurement escape to the heap.
var footprintSink *EventQueue

// TestEventQueueFootprint pins what one queue costs to build: every soc.Build
// allocates, zeroes and hands the collector one, and the 520 KiB of
// the one-tick ring was 16% of the bytes a small DSE point allocated. 136 KiB
// admits the 128 KiB ring and its 2 KiB bitmap, nothing larger.
func TestEventQueueFootprint(t *testing.T) {
	defer func() { footprintSink = nil }()
	const limit = 136 << 10
	best := uint64(1 << 62)
	for try := 0; try < 3; try++ { // a stray allocation by the test runtime only ever adds
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		footprintSink = NewEventQueue()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got < best {
			best = got
		}
	}
	t.Logf("NewEventQueue allocates %d bytes (%.1f KiB)", best, float64(best)/1024)
	if best > limit {
		t.Errorf("NewEventQueue allocates %d bytes, limit %d", best, limit)
	}
	if best < calBuckets*8 {
		t.Errorf("measured %d bytes, less than the ring's own %d: the measurement is broken", best, calBuckets*8)
	}
}

// TestNextEventTick checks the introspection hook across near, far and empty
// states.
func TestNextEventTick(t *testing.T) {
	q := NewEventQueue()
	if _, ok := q.NextEventTick(); ok {
		t.Fatal("empty queue reported a next event")
	}
	q.ScheduleOneShot("far", 3*CalendarWindow, func() {})
	if tk, ok := q.NextEventTick(); !ok || tk != 3*CalendarWindow {
		t.Fatalf("far-only queue: got (%d, %v), want (%d, true)", tk, ok, 3*CalendarWindow)
	}
	q.ScheduleOneShot("near", 42, func() {})
	if tk, ok := q.NextEventTick(); !ok || tk != 42 {
		t.Fatalf("near+far queue: got (%d, %v), want (42, true)", tk, ok)
	}
	q.Run()
	if _, ok := q.NextEventTick(); ok {
		t.Fatal("drained queue reported a next event")
	}
}

// TestPendingSummariesAcrossWindow checks watchdog introspection sees both
// ring and heap residents in dispatch order.
func TestPendingSummariesAcrossWindow(t *testing.T) {
	q := NewEventQueue()
	q.ScheduleFunc("near-b", 100, func() {})
	q.ScheduleFunc("far-a", 5*CalendarWindow, func() {})
	q.ScheduleFunc("near-a", 50, func() {})
	got := q.PendingSummaries(0)
	want := []string{"near-a @50 prio=0", "near-b @100 prio=0", fmt.Sprintf("far-a @%d prio=0", 5*CalendarWindow)}
	if len(got) != len(want) {
		t.Fatalf("got %d summaries %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("summary %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestReferenceQueueHonoursAPI checks the reference queue a system can be
// built on (soc's oracle path) still honours the full API surface.
func TestReferenceQueueHonoursAPI(t *testing.T) {
	q := NewReferenceEventQueue()
	var order []Tick
	q.ScheduleOneShot("a", 10, func() { order = append(order, q.Now()) })
	q.ScheduleOneShot("b", 5, func() { order = append(order, q.Now()) })
	q.Run()
	if len(order) != 2 || order[0] != 5 || order[1] != 10 {
		t.Fatalf("reference dispatch order %v, want [5 10]", order)
	}
}
