package sim

import (
	"fmt"
	"math/bits"
	"sort"

	"gem5rtl/internal/ckpt"
)

// SaveState serialises the queue's clock, canonical sequence space, dispatch
// count and exit latch. Pending events are deliberately not serialised here:
// events hold closures, which cannot cross a process boundary. Instead every
// component saves the scheduling state of the events it owns (SaveEvent) and
// re-materialises them during its own RestoreState (RestoreEvent). It is
// exactly SaveQueues over a single queue, so a serial engine and a sharded
// engine (which saves all its shard queues through SaveQueues) emit
// byte-identical streams for the same simulated machine.
func (q *EventQueue) SaveState(w *ckpt.Writer) error {
	return SaveQueues(w, []*EventQueue{q})
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

// CanonicalizeEventSeqs renumbers the pending events of all queues into one
// shared canonical sequence space: events sort by (when, prio, rank, seq)
// and are assigned seq 0..n-1 in that order; every queue's counter is set to
// n. The sort key is engine-independent — rank is the event-name hash, and
// the per-queue seq tie-break is only consulted between same-name events,
// which always share a queue — so a serial run and a sharded run over the
// same machine state produce identical numbering. Renumbering preserves the
// relative seq order of same-name events, so it never perturbs future
// dispatch order; it exists purely to make the checkpoint encoding (and
// therefore StateHash) independent of how events were spread across queues.
//
// Exact (when, prio, rank) ties between events on *different* queues would
// make the canonical order ambiguous; that can only happen with duplicate
// event names across components, which is a build bug, and panics loudly.
func CanonicalizeEventSeqs(queues []*EventQueue) uint64 {
	type pend struct {
		e  *Event
		qi int
	}
	var all []pend
	for qi, q := range queues {
		q.forEachPending(func(e *Event) { all = append(all, pend{e, qi}) })
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i].e, all[j].e
		if a.when != b.when {
			return a.when < b.when
		}
		if a.prio != b.prio {
			return a.prio < b.prio
		}
		if a.rank != b.rank {
			return a.rank < b.rank
		}
		return a.seq < b.seq
	})
	for i := 1; i < len(all); i++ {
		a, b := all[i-1], all[i]
		if a.qi != b.qi && a.e.when == b.e.when && a.e.prio == b.e.prio && a.e.rank == b.e.rank {
			panic(fmt.Sprintf("sim: canonical event order ambiguous: %q (queue %d) and %q (queue %d) tie at tick %d prio %d rank %#x",
				a.e.name, a.qi, b.e.name, b.qi, a.e.when, a.e.prio, a.e.rank))
		}
	}
	n := uint64(len(all))
	for i, p := range all {
		p.e.seq = uint64(i)
	}
	// Future Schedule calls mint from CanonicalSeqBase+n: far above both the
	// renumbered events and the per-port-queue stamp ordinals (port/ckpt.go),
	// so anything scheduled after the save — in the saving run or in a
	// restored one — orders behind everything that predates it. The saving
	// run and a restored run mint identical sequences from here on, which
	// keeps save-and-continue bit-identical to restore-and-continue.
	for _, q := range queues {
		q.seq = CanonicalSeqBase + n
	}
	return n
}

// CanonicalSeqBase is the post-canonicalization floor of the event sequence
// counter; see CanonicalizeEventSeqs.
const CanonicalSeqBase = uint64(1) << 32

// SaveQueues serialises one or more event queues as a single canonical
// "sim.eventq" section: shared clock (all queues must agree — the sharded
// engine only saves at epoch barriers), canonical sequence space
// (CanonicalizeEventSeqs), summed dispatch count and the primary queue's
// exit latch, followed by the merged self-profiler attribution table in
// sorted (component, kind) order. A one-queue serial save and an n-shard
// parallel save of the same machine emit identical bytes, which is what
// makes serial and sharded checkpoints interchangeable.
func SaveQueues(w *ckpt.Writer, queues []*EventQueue) error {
	q0 := queues[0]
	for _, q := range queues[1:] {
		if q.now != q0.now {
			panic(fmt.Sprintf("sim: SaveQueues with unaligned clocks (%d vs %d); sharded saves must happen at epoch barriers",
				q0.now, q.now))
		}
	}
	n := CanonicalizeEventSeqs(queues)
	w.Section("sim.eventq")
	w.U64(uint64(q0.now))
	w.U64(CanonicalSeqBase + n)
	var disp uint64
	for _, q := range queues {
		disp += q.dispatched
	}
	w.U64(disp)
	w.Bool(q0.exitSet)
	w.String(q0.exitReason)
	saveAttrMerged(w, queues)
	return w.Err()
}

// saveAttrMerged persists the self-profilers' exact per-owner event counts
// (host times are machine-dependent and deliberately excluded), merged
// across queues and sorted by (component, kind) — an encoding independent of
// per-queue OwnerID interning order and of the shard layout. With profiling
// off it writes an empty table.
func saveAttrMerged(w *ckpt.Writer, queues []*EventQueue) {
	merged := make(map[ownerKey]uint64)
	for _, q := range queues {
		if q.prof == nil {
			continue
		}
		for id, c := range q.prof.counts {
			if c != 0 {
				merged[q.ownerKeys[id]] += c
			}
		}
	}
	keys := make([]ownerKey, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].component != keys[j].component {
			return keys[i].component < keys[j].component
		}
		return keys[i].kind < keys[j].kind
	})
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.String(k.component)
		w.String(k.kind)
		w.U64(merged[k])
	}
}

// RestoreState loads the queue's clock and counters. It must run on a
// pristine queue (freshly built system, nothing started) and before any
// component restores: component reschedules validate against the restored
// clock, and the restored sequence counter guarantees that events scheduled
// after the restore order behind every re-materialised one.
func (q *EventQueue) RestoreState(r *ckpt.Reader) error {
	return RestoreQueues(r, []*EventQueue{q})
}

// RestoreQueues loads a canonical "sim.eventq" section into one or more
// pristine queues: the clock and sequence counter propagate to every queue
// (component restores then re-materialise each event onto its own shard's
// queue with its canonical seq), while the dispatch count, exit latch and
// attribution table land on the primary queue — the next SaveQueues sums and
// merges across queues, so the round-trip is byte-stable regardless of which
// engine saved and which restores.
func RestoreQueues(r *ckpt.Reader, queues []*EventQueue) error {
	for _, q := range queues {
		if q.now != 0 || q.Pending() != 0 || q.dispatched != 0 {
			return fmt.Errorf("sim: queue restore requires a pristine queue (now=%d, pending=%d, dispatched=%d)",
				q.now, q.Pending(), q.dispatched)
		}
	}
	r.Section("sim.eventq")
	now := Tick(r.U64())
	seq := r.U64()
	disp := r.U64()
	exitSet := r.Bool()
	exitReason := r.String()
	for i, q := range queues {
		q.now = now
		q.seq = seq
		if i == 0 {
			q.dispatched = disp
			q.exitSet = exitSet
			q.exitReason = exitReason
		}
	}
	q := queues[0]
	n := r.U32()
	if n > 0 {
		q.restoredAttr = make(map[ownerKey]uint64, n)
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

// RestoreSchedule inserts e with an explicit (when, seq) pair captured by a
// checkpoint. Unlike Schedule it does not mint a fresh sequence number:
// keeping the saved one makes dispatch ordering independent of the order in
// which components happen to re-materialise their events. The queue's own
// counter is bumped past seq so post-restore Schedule calls cannot collide.
func (q *EventQueue) RestoreSchedule(e *Event, when Tick, seq uint64) {
	if e.scheduled {
		panic(fmt.Sprintf("sim: restoring already-scheduled event %q", e.name))
	}
	if when < q.now {
		panic(fmt.Sprintf("sim: event %q restored at %d, before now %d", e.name, when, q.now))
	}
	e.seq = seq
	q.insert(e, when)
	if seq >= q.seq {
		q.seq = seq + 1
	}
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
// checkpoint).
func (q *EventQueue) RestoreEvent(r *ckpt.Reader, e *Event) {
	if !r.Bool() {
		return
	}
	when := Tick(r.U64())
	seq := r.U64()
	if r.Err() != nil {
		return
	}
	q.RestoreSchedule(e, when, seq)
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
