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
//   - BeforeSave, at the start of a saving Checkpoint before anything is
//     written, which must also put the component's pending events where the
//     per-cycle machine has them, so the stream is always that of that
//     machine.
type Settler interface {
	Settle()
	BeforeSave()
}

// RegisterSettler adds c to the components the run loops settle and a
// saving Checkpoint wakes. The queue is the first thing any checkpoint
// writes, which makes its save the one place every rig passes through,
// whether it saves a whole system or a queue and one component by hand.
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

// Checkpoint saves or restores the queue as one "sim.eventq" section: clock,
// canonical sequence space (canonicalizeSeqs), dispatch count and exit latch,
// followed by the self-profiler's attribution table. Pending events are
// deliberately not serialised here: events hold closures, which cannot cross
// a process boundary. Instead every component checkpoints the scheduling
// state of the events it owns (CheckpointEvent), which re-materialises them
// on restore. A save wakes the components registered with RegisterSettler
// first (BeforeSave).
//
// A restore must run on a pristine queue (freshly built system, nothing
// started) and before any component restores: component reschedules
// validate against the restored clock, and the restored sequence counter
// guarantees that events scheduled after the restore order behind every
// re-materialised one.
func (q *EventQueue) Checkpoint(s *ckpt.Stream) error {
	if !s.Restoring() {
		q.eachSettler(Settler.BeforeSave)
		q.canonicalizeSeqs()
	} else if q.now != 0 || q.Pending() != 0 || q.dispatched != 0 {
		return fmt.Errorf("sim: queue restore requires a pristine queue (now=%d, pending=%d, dispatched=%d)",
			q.now, q.Pending(), q.dispatched)
	}
	s.Section("sim.eventq")
	s.U64((*uint64)(&q.now))
	s.U64(&q.seq)
	s.U64(&q.dispatched)
	s.Bool(&q.exitSet)
	s.String(&q.exitReason)
	q.checkpointAttr(s)
	return s.Err()
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
func (q *EventQueue) canonicalizeSeqs() {
	all := q.pendingInOrder()
	for i, e := range all {
		e.seq = uint64(i)
	}
	// Future Schedule calls mint from CanonicalSeqBase+n: far above both the
	// renumbered events and the per-port-queue stamp ordinals (port/ckpt.go),
	// so anything scheduled after the save — in the saving run or in a
	// restored one — orders behind everything that predates it. The saving
	// run and a restored run mint identical sequences from here on, which
	// keeps save-and-continue bit-identical to restore-and-continue.
	q.seq = CanonicalSeqBase + uint64(len(all))
}

// CanonicalSeqBase is the post-canonicalization floor of the event sequence
// counter; see canonicalizeSeqs.
const CanonicalSeqBase = uint64(1) << 32

// checkpointAttr saves or restores the self-profiler's exact per-owner event
// counts (host times are machine-dependent and deliberately excluded), saved
// sorted by (component, kind) — an encoding independent of OwnerID interning
// order. With profiling off a save writes an empty table. A restore folds
// the counts into a profiler attached before it; otherwise AttachProfiler
// picks them up, and a profiling-off run simply discards them.
func (q *EventQueue) checkpointAttr(s *ckpt.Stream) {
	var ids []int
	if q.prof != nil && !s.Restoring() {
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
	n := uint32(len(ids))
	s.U32(&n)
	if s.Restoring() && n > 0 {
		q.restoredAttr = make(map[ownerKey]uint64) // n is the stream's word: no size hint
	}
	for i := uint32(0); i < n && s.Err() == nil; i++ {
		var k ownerKey
		var c uint64
		if !s.Restoring() {
			k, c = q.ownerKeys[ids[i]], q.prof.counts[ids[i]]
		}
		s.String(&k.component)
		s.String(&k.kind)
		s.U64(&c)
		if s.Restoring() {
			q.restoredAttr[k] += c
		}
	}
	if s.Restoring() && n > 0 && q.prof != nil {
		q.applyRestoredAttr()
	}
}

// CheckpointEvent saves or restores the scheduling state of a
// component-owned event: whether it is pending and, if so, its tick and
// sequence number. A restore re-schedules e; the event must belong to the
// restoring component (its closure is recreated by the component's
// constructor; only the scheduling state travels through the checkpoint).
// It keeps the saved sequence number instead of minting one, so dispatch
// order does not depend on the order in which components re-materialise
// their events, and bumps the queue's counter past it so later Schedule
// calls cannot collide. A schedule no saved machine holds — the event
// already pending, or due before the restored clock — comes from a corrupt
// stream and fails s.
func (q *EventQueue) CheckpointEvent(s *ckpt.Stream, e *Event) {
	pending, when, seq := e.scheduled, e.when, e.seq
	s.Bool(&pending)
	if !pending {
		return
	}
	s.U64((*uint64)(&when))
	s.U64(&seq)
	switch {
	case !s.Restoring() || s.Err() != nil:
	case e.scheduled:
		s.Fail(fmt.Errorf("sim: restoring already-scheduled event %q", e.name))
	case when < q.now:
		s.Fail(fmt.Errorf("sim: event %q restored at %d, before now %d", e.name, when, q.now))
	default:
		e.seq = seq
		q.insert(e, when)
		q.seq = max(q.seq, seq+1)
	}
}

// Checkpoint saves or restores the ticker's cycle count and pending-edge
// event. Restored tickers must not also be Start()ed.
func (t *Ticker) Checkpoint(s *ckpt.Stream) error {
	s.Section("sim.ticker")
	s.U64(&t.cycle)
	t.dom.q.CheckpointEvent(s, t.ev)
	return s.Err()
}
