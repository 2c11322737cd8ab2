package sim

import (
	"bytes"
	"testing"

	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/conform"
)

// TestEventQueueRoundTrip checks that queue counters and exit state survive a
// save/restore and that restored runs are refused on dirty queues.
func TestEventQueueRoundTrip(t *testing.T) {
	q := NewEventQueue()
	q.ScheduleFunc("a", 100, func() {})
	q.ScheduleFunc("b", 200, func() {})
	q.RunUntil(150)
	q.ExitSimLoop("test exit")

	blob := conform.Save(t, q)
	q2 := NewEventQueue()
	conform.Restore(t, blob, q2)
	if q2.Now() != q.Now() || q2.Dispatched() != q.Dispatched() {
		t.Errorf("restored now=%d dispatched=%d, want %d/%d", q2.Now(), q2.Dispatched(), q.Now(), q.Dispatched())
	}
	if q2.ExitReason() != "test exit" {
		t.Errorf("exit reason = %q", q2.ExitReason())
	}

	// Restoring into a used queue must be refused.
	q3 := NewEventQueue()
	q3.ScheduleFunc("x", 0, func() {})
	q3.Step()
	if err := conform.Load(blob, q3); err == nil {
		t.Fatal("restore into dirty queue should fail")
	}
}

// restoreAt re-schedules e at (when, seq) through CheckpointEvent, as a
// component restoring a saved event does, and returns the stream's error.
func restoreAt(t *testing.T, q *EventQueue, e *Event, when Tick, seq uint64) error {
	t.Helper()
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	w.Bool(true)
	w.U64(uint64(when))
	w.U64(seq)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	s := ckpt.Restoring(ckpt.NewReader(&buf))
	q.CheckpointEvent(s, e)
	return s.Err()
}

// TestRestoreSchedulePreservesOrder re-materialises three same-name,
// same-tick events in a different order than their saved sequence numbers
// and checks the saved seqs still decide dispatch order (rank ties on equal
// names, so seq is the deciding key), and that a fresh same-name event
// scheduled after the restore orders behind all of them.
func TestRestoreSchedulePreservesOrder(t *testing.T) {
	q := NewEventQueue()
	var order []string
	mk := func(tag string) *Event { return NewEvent("ev", func() { order = append(order, tag) }) }
	a, b, c := mk("a"), mk("b"), mk("c")

	// Restore in reverse order with explicit seqs.
	for i, e := range []*Event{c, b, a} {
		if err := restoreAt(t, q, e, 100, uint64(2-i)); err != nil {
			t.Fatal(err)
		}
	}
	// A newly scheduled event with the same name at the same tick mints a
	// later seq and must order after all three.
	q.ScheduleOneShot("ev", 100, func() { order = append(order, "d") })

	q.Run()
	want := []string{"a", "b", "c", "d"}
	for i, n := range want {
		if i >= len(order) || order[i] != n {
			t.Fatalf("dispatch order = %v, want %v", order, want)
		}
	}
	// A schedule no saved machine holds fails the reader instead of
	// panicking: one due before the clock, one already pending.
	if err := restoreAt(t, q, NewEvent("late", func() {}), q.Now()-1, 7); err == nil {
		t.Error("event restored before now was accepted")
	}
	e := NewEvent("twice", func() {})
	if err := restoreAt(t, q, e, q.Now()+5, 8); err != nil {
		t.Fatal(err)
	}
	if err := restoreAt(t, q, e, q.Now()+6, 9); err == nil {
		t.Error("already-scheduled event restored again was accepted")
	}
}

// TestEventAndTickerRoundTrip saves a scheduled event and a running ticker,
// restores them into a fresh queue, and checks both fire at identical times.
func TestEventAndTickerRoundTrip(t *testing.T) {
	run := func(restore bool) (fired Tick, cycles uint64) {
		q := NewEventQueue()
		dom := NewClockDomain("clk", q, 1_000_000_000) // 1 ns period
		var ev *Event
		ev = NewEvent("fire", func() { fired = q.Now() })
		tk := NewTicker("tick", dom, 0, func(uint64) bool { return true })

		if !restore {
			tk.Start()
			q.Schedule(ev, 7_500)
			q.RunUntil(20_000)
			cycles = tk.Cycle()
			return fired, cycles
		}

		// Build the same system, run half way, checkpoint, and pour the
		// state into a second fresh instance.
		tk.Start()
		q.Schedule(ev, 7_500)
		q.RunUntil(5_000)

		blob := conform.Save(t, q, standing{q, []*Event{ev}}, tk)

		q2 := NewEventQueue()
		dom2 := NewClockDomain("clk", q2, 1_000_000_000)
		var fired2 Tick
		ev2 := NewEvent("fire", func() { fired2 = q2.Now() })
		tk2 := NewTicker("tick", dom2, 0, func(uint64) bool { return true })
		conform.Restore(t, blob, q2, standing{q2, []*Event{ev2}}, tk2)
		q2.RunUntil(20_000)
		return fired2, tk2.Cycle()
	}

	coldFired, coldCycles := run(false)
	warmFired, warmCycles := run(true)
	if coldFired != warmFired {
		t.Errorf("event fired at %d after restore, want %d", warmFired, coldFired)
	}
	if coldCycles != warmCycles {
		t.Errorf("ticker cycles = %d after restore, want %d", warmCycles, coldCycles)
	}
}
