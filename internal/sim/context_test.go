package sim

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"gem5rtl/internal/conform"
)

// perpetualChain schedules a self-rescheduling event so the queue never
// drains on its own.
func perpetualChain(q *EventQueue, every Tick) {
	var e *Event
	e = NewEvent("chain", func() { q.Schedule(e, q.Now()+every) })
	q.Schedule(e, every)
}

func TestWatchContextCancelExitsLoop(t *testing.T) {
	q := NewEventQueue()
	perpetualChain(q, Nanosecond)
	ctx, cancel := context.WithCancel(context.Background())
	stop := q.WatchContext(ctx, Microsecond)
	defer stop()
	cancel()
	q.RunUntil(MaxTick)
	if q.ExitReason() != ExitReasonContext {
		t.Fatalf("exit reason %q, want %q", q.ExitReason(), ExitReasonContext)
	}
	// The first check fires one interval in; the loop must not run beyond
	// the following check.
	if q.Now() > 2*Microsecond {
		t.Fatalf("ran to tick %d after cancellation", q.Now())
	}
}

func TestWatchContextUncancelledIsInvisible(t *testing.T) {
	run := func(watch bool) Tick {
		q := NewEventQueue()
		perpetualChain(q, Nanosecond)
		if watch {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			stop := q.WatchContext(ctx, Microsecond)
			defer stop()
		}
		q.RunUntil(10 * Microsecond)
		return q.Now()
	}
	plainNow := run(false)
	watchNow := run(true)
	if plainNow != watchNow {
		t.Fatalf("watcher changed final tick: %d vs %d", plainNow, watchNow)
	}
}

func TestWatchContextStopRemovesEvent(t *testing.T) {
	q := NewEventQueue()
	perpetualChain(q, Nanosecond)
	ctx, cancel := context.WithCancel(context.Background())
	stop := q.WatchContext(ctx, Microsecond)
	cancel()
	stop()
	if q.RunUntil(10*Microsecond) != "" || q.Now() != 10*Microsecond {
		t.Fatalf("stopped watcher still ended the run: reason %q at %d", q.ExitReason(), q.Now())
	}
	// Contexts that can never be cancelled install nothing.
	if s := q.WatchContext(context.Background(), 0); s == nil {
		t.Fatal("nil stop func for background context")
	} else {
		s()
	}
	if q.hooks.pollAt != MaxTick || len(q.hooks.polls) != 0 {
		t.Fatalf("polls left registered: %d, next at %d", len(q.hooks.polls), q.hooks.pollAt)
	}
}

// TestPollLeavesNoTrace: a polled run dispatches the same events and saves the
// same bytes as an unpolled one, and each check runs after every event at or
// before its deadline, with the clock on the deadline.
func TestPollLeavesNoTrace(t *testing.T) {
	run := func(poll bool) ([]byte, []Tick) {
		q := NewEventQueue()
		perpetualChain(q, 300*Nanosecond)
		var seen []Tick
		if poll {
			q.Poll(Microsecond, func() Tick {
				if e := q.peek(); e.when <= q.Now() {
					t.Errorf("poll at %d ran before the event at %d", q.Now(), e.when)
				}
				seen = append(seen, q.Now())
				return q.Now() + Microsecond
			})
		}
		q.RunUntil(3500 * Nanosecond)
		return conform.Save(t, q), seen
	}
	bare, _ := run(false)
	polled, seen := run(true)
	if !bytes.Equal(bare, polled) {
		t.Error("a polled queue saves different bytes")
	}
	if want := []Tick{Microsecond, 2 * Microsecond, 3 * Microsecond}; !slices.Equal(seen, want) {
		t.Errorf("polled at %v, want %v", seen, want)
	}
}

// TestPollReachesDeadlinesInADrainedQueue: a queue with nothing left to
// dispatch still runs the polls due before the limit, in deadline order, and
// one that unregisters itself (MaxTick) is not called again.
func TestPollReachesDeadlinesInADrainedQueue(t *testing.T) {
	q := NewEventQueue()
	var log []string
	q.Poll(2*Microsecond, func() Tick {
		log = append(log, fmt.Sprintf("a@%d", q.Now()))
		return MaxTick
	})
	q.Poll(Microsecond, func() Tick {
		log = append(log, fmt.Sprintf("b@%d", q.Now()))
		return q.Now() + 2*Microsecond
	})
	q.RunUntil(4 * Microsecond)
	want := []string{"b@1000000", "a@2000000", "b@3000000"}
	if !slices.Equal(log, want) {
		t.Fatalf("polls %v, want %v", log, want)
	}
	if q.Now() != 4*Microsecond || q.Dispatched() != 0 {
		t.Fatalf("now %d, dispatched %d", q.Now(), q.Dispatched())
	}
}
