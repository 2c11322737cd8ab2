package sim

import (
	"fmt"
	"math/bits"
	"sort"

	"gem5rtl/internal/ckpt"
)

// Settler is a component whose host-side execution state can lag the machine
// it models — a clocked object asleep between its inputs, with cycles it has
// not yet accounted for. The queue brings every registered one up to date at
// the two points where the machine is read from outside a run:
//
//   - Settle, when a run loop (Run, RunUntil) returns, so the statistics,
//     dispatch count and back doors a caller reads next are the per-cycle
//     machine's. A loop driven by Step settles nothing.
//   - BeforeSave, at the start of SaveState before anything is written, which
//     must also put the component's pending events where the per-cycle
//     machine has them, so the stream is always that of that machine.
type Settler interface {
	Settle()
	BeforeSave()
}

// RegisterSettler adds c to the components the run loops settle and
// SaveState wakes. The queue is the first thing any checkpoint writes, which
// makes its save the one place every rig passes through, whether it saves a
// whole system or a queue and one component by hand.
func (q *EventQueue) RegisterSettler(c Settler) {
	h := q.hook()
	h.settlers = append(h.settlers, c)
}

// eachSettler calls fn on every registered Settler, latest registration
// first.
func (q *EventQueue) eachSettler(fn func(Settler)) {
	if q.hooks == nil {
		return
	}
	for i := len(q.hooks.settlers) - 1; i >= 0; i-- {
		fn(q.hooks.settlers[i])
	}
}

// settle settles every registered Settler.
func (q *EventQueue) settle() { q.eachSettler(Settler.Settle) }

// SaveState serialises the queue as one "sim.eventq" section: clock,
// canonical sequence space (canonicalizeSeqs), dispatch count and exit latch,
// followed by the self-profiler's attribution table. Pending events are
// deliberately not serialised here: events hold closures, which cannot cross
// a process boundary. Instead every component saves the scheduling state of
// the events it owns (SaveEvent) and re-materialises them during its own
// RestoreState (RestoreEvent). Components registered with RegisterSettler
// are woken first (BeforeSave).
func (q *EventQueue) SaveState(w *ckpt.Writer) error {
	q.eachSettler(Settler.BeforeSave)
	n := q.canonicalizeSeqs()
	w.Section("sim.eventq")
	w.U64(uint64(q.now))
	w.U64(CanonicalSeqBase + n)
	w.U64(q.dispatched)
	w.Bool(q.exitSet)
	w.String(q.exitReason)
	q.saveAttr(w)
	return w.Err()
}

// forEachPending visits every pending event (spill heap, then the occupied
// ring buckets) in no particular dispatch order.
func (q *EventQueue) forEachPending(fn func(*Event)) {
	for _, e := range q.far {
		fn(e)
	}
	for wi, w := range q.bits {
		for ; w != 0; w &= w - 1 {
			for e := q.slots[wi<<6+bits.TrailingZeros64(w)]; e != nil; e = e.next {
				fn(e)
			}
		}
	}
}

// pendingInOrder returns every pending event in dispatch order.
func (q *EventQueue) pendingInOrder() []*Event {
	evs := make([]*Event, 0, q.Pending())
	q.forEachPending(func(e *Event) { evs = append(evs, e) })
	sort.Slice(evs, func(i, j int) bool { return evs[i].before(evs[j]) })
	return evs
}

// canonicalizeSeqs renumbers the pending events into a canonical sequence
// space: events sort by (when, prio, rank, seq) — their dispatch order — and
// are assigned seq 0..n-1 in that order. The raw counter depends on how many
// events the process scheduled before, including any run before a restore;
// the renumbering depends only on what is pending, so the checkpoint encoding
// (and every digest of it) of the same machine state is always the same
// bytes. It preserves the relative order of the events, so it never perturbs
// future dispatch order.
func (q *EventQueue) canonicalizeSeqs() uint64 {
	all := q.pendingInOrder()
	for i, e := range all {
		e.seq = uint64(i)
	}
	n := uint64(len(all))
	// Future Schedule calls mint from CanonicalSeqBase+n: far above both the
	// renumbered events and the per-port-queue stamp ordinals (port/ckpt.go),
	// so anything scheduled after the save — in the saving run or in a
	// restored one — orders behind everything that predates it. The saving
	// run and a restored run mint identical sequences from here on, which
	// keeps save-and-continue bit-identical to restore-and-continue.
	q.seq = CanonicalSeqBase + n
	return n
}

// CanonicalSeqBase is the post-canonicalization floor of the event sequence
// counter; see canonicalizeSeqs.
const CanonicalSeqBase = uint64(1) << 32

// saveAttr persists the self-profiler's exact per-owner event counts (host
// times are machine-dependent and deliberately excluded), sorted by
// (component, kind) — an encoding independent of OwnerID interning order.
// With profiling off it writes an empty table.
func (q *EventQueue) saveAttr(w *ckpt.Writer) {
	var ids []int
	if q.prof != nil {
		for id, c := range q.prof.counts {
			if c != 0 {
				ids = append(ids, id)
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := q.ownerKeys[ids[i]], q.ownerKeys[ids[j]]
		if a.component != b.component {
			return a.component < b.component
		}
		return a.kind < b.kind
	})
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		w.String(q.ownerKeys[id].component)
		w.String(q.ownerKeys[id].kind)
		w.U64(q.prof.counts[id])
	}
}

// RestoreState loads the queue's clock and counters. It must run on a
// pristine queue (freshly built system, nothing started) and before any
// component restores: component reschedules validate against the restored
// clock, and the restored sequence counter guarantees that events scheduled
// after the restore order behind every re-materialised one.
func (q *EventQueue) RestoreState(r *ckpt.Reader) error {
	if q.now != 0 || q.Pending() != 0 || q.dispatched != 0 {
		return fmt.Errorf("sim: queue restore requires a pristine queue (now=%d, pending=%d, dispatched=%d)",
			q.now, q.Pending(), q.dispatched)
	}
	r.Section("sim.eventq")
	q.now = Tick(r.U64())
	q.seq = r.U64()
	q.dispatched = r.U64()
	q.exitSet = r.Bool()
	q.exitReason = r.String()
	n := r.U32()
	if n > 0 {
		q.restoredAttr = make(map[ownerKey]uint64) // n is the stream's word: no size hint
		for i := uint32(0); i < n && r.Err() == nil; i++ {
			comp := r.String()
			kind := r.String()
			q.restoredAttr[ownerKey{comp, kind}] += r.U64()
		}
		// A profiler attached before the restore folds the counts in now;
		// otherwise AttachProfiler picks them up, and a profiling-off run
		// simply discards them.
		if q.prof != nil {
			q.applyRestoredAttr()
		}
	}
	return r.Err()
}

// SaveEvent records the scheduling state of a component-owned event:
// whether it is pending and, if so, its tick and sequence number.
func SaveEvent(w *ckpt.Writer, e *Event) {
	w.Bool(e.scheduled)
	if e.scheduled {
		w.U64(uint64(e.when))
		w.U64(e.seq)
	}
}

// RestoreEvent re-schedules e from state captured by SaveEvent. The event
// must belong to the restoring component (its closure is recreated by the
// component's constructor; only the scheduling state travels through the
// checkpoint). It keeps the saved sequence number instead of minting one, so
// dispatch order does not depend on the order in which components
// re-materialise their events, and bumps the queue's counter past it so
// later Schedule calls cannot collide. A schedule no saved machine holds —
// the event already pending, or due before the restored clock — comes from
// a corrupt stream and fails r.
func (q *EventQueue) RestoreEvent(r *ckpt.Reader, e *Event) {
	if !r.Bool() {
		return
	}
	when, seq := Tick(r.U64()), r.U64()
	switch {
	case r.Err() != nil:
	case e.scheduled:
		r.Fail(fmt.Errorf("sim: restoring already-scheduled event %q", e.name))
	case when < q.now:
		r.Fail(fmt.Errorf("sim: event %q restored at %d, before now %d", e.name, when, q.now))
	default:
		e.seq = seq
		q.insert(e, when)
		q.seq = max(q.seq, seq+1)
	}
}

// SaveState captures the ticker's cycle count and pending-edge event.
func (t *Ticker) SaveState(w *ckpt.Writer) error {
	w.Section("sim.ticker")
	w.U64(t.cycle)
	SaveEvent(w, t.ev)
	return w.Err()
}

// RestoreState reinstates the cycle count and (if it was pending) the next
// clock-edge event. Restored tickers must not also be Start()ed.
func (t *Ticker) RestoreState(r *ckpt.Reader) error {
	r.Section("sim.ticker")
	t.cycle = r.U64()
	t.dom.q.RestoreEvent(r, t.ev)
	return r.Err()
}
