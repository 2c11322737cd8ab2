package sim

import (
	"context"
	"fmt"
	"math"
)

// ExitReasonContext is the exit reason set when a watched context ends.
const ExitReasonContext = "context done"

// DefaultCtxCheckInterval is the simulated-time spacing of context checks
// installed by WatchContext when callers pass 0. 100 us of simulated time
// keeps the host-side cancellation latency well under a second even at
// heavy simulation slowdowns.
const DefaultCtxCheckInterval = 100 * Microsecond

// hooks is what the run loops call besides events: the registered Settlers
// and the host-side polls.
type hooks struct {
	settlers []Settler
	polls    []*pollEntry
	// pollAt is the earliest deadline among polls; MaxTick when none is due.
	pollAt Tick
}

// pollEntry is one registered host-side check (see Poll).
type pollEntry struct {
	at    Tick
	check func() Tick
}

// hook returns the queue's hooks, creating them on first use.
func (q *EventQueue) hook() *hooks {
	if q.hooks == nil {
		q.hooks = &hooks{pollAt: MaxTick}
	}
	return q.hooks
}

// Poll registers a host-side check of the run: RunUntil calls check once the
// simulation reaches tick at — after every event at or before at has run,
// with Now() == at — and again at whatever tick check returns, until it
// returns MaxTick. A check observes the machine and may end the loop with
// ExitSimLoop; it must not schedule events or change simulated state. Unlike
// an event, a poll takes no sequence number, dispatch count or owner and is
// not checkpointed, so a run is the same machine, byte for byte, with or
// without its polls. A drained queue still reaches its due polls, up to the
// limit; Step polls nothing. The returned func unregisters the check.
func (q *EventQueue) Poll(at Tick, check func() Tick) (cancel func()) {
	h := q.hook()
	p := &pollEntry{at: at, check: check}
	h.polls = append(h.polls, p)
	h.pollAt = min(h.pollAt, at)
	return func() {
		p.at = MaxTick
		h.rearm()
	}
}

// rearm drops the polls that are done (due at MaxTick) and recomputes pollAt
// from the rest.
func (h *hooks) rearm() {
	kept := h.polls[:0]
	h.pollAt = MaxTick
	for _, p := range h.polls {
		if p.at != MaxTick {
			kept = append(kept, p)
			h.pollAt = min(h.pollAt, p.at)
		}
	}
	h.polls = kept
}

// poll runs the polls due at the earliest deadline when that deadline is at
// or before eff, and reports whether it did. Every event up to the deadline
// has run, so time moves to it as if an event there had been dispatched
// last.
func (q *EventQueue) poll(eff Tick) bool {
	h := q.hooks
	if h == nil || h.pollAt > eff || h.pollAt == MaxTick {
		return false
	}
	at := h.pollAt
	if q.now <= at {
		q.now = at
		q.sameTick = orderKey{at, math.MaxUint64, math.MaxInt32}
	}
	for _, p := range h.polls {
		if p.at > at {
			continue
		}
		if p.at = p.check(); p.at <= at {
			panic(fmt.Sprintf("sim: poll due at %d re-armed for %d", at, p.at))
		}
	}
	h.rearm()
	return true
}

// WatchContext polls ctx (see Poll) every interval of simulated time and ends
// the simulation loop (ExitSimLoop with ExitReasonContext) once ctx is
// cancelled or its deadline passes. This is how host-side cancellation and
// -timeout flags reach into the deterministic event loop without entering
// it: an uncancelled watched run is the same machine, checkpoint bytes
// included, as an unwatched one.
//
// interval is the simulated time between checks (0 selects
// DefaultCtxCheckInterval). The returned stop function removes the watcher;
// callers must invoke it before reusing the queue for a fresh run.
func (q *EventQueue) WatchContext(ctx context.Context, interval Tick) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	if interval == 0 {
		interval = DefaultCtxCheckInterval
	}
	return q.Poll(q.now+interval, func() Tick {
		if ctx.Err() != nil {
			q.ExitSimLoop(ExitReasonContext)
			return MaxTick
		}
		return q.now + interval
	})
}
