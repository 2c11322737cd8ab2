// Package sim provides the discrete-event simulation kernel that underpins
// every timed component in gem5rtl. It mirrors gem5's event queue semantics:
// simulated time is counted in integer Ticks (1 tick = 1 picosecond), events
// are ordered by (tick, priority, insertion sequence), and a single queue
// drives the whole system deterministically.
//
// # Queue internals
//
// The queue is a hybrid calendar/heap structure tuned for the simulator's
// event mix (DESIGN.md §6.1 has the invariants, PERFORMANCE.md §6 the
// measurements that chose the geometry):
//
//   - Near-future events — clock edges, port-queue drains, cache, crossbar
//     and DRAM completions, everything fewer than calBuckets buckets ahead of
//     now's — live in a calendar ring of buckets spanning 2^calBucketBits
//     ticks each. A bucket is an intrusive list kept sorted by the dispatch
//     key (when, prio, rank, seq), so insertion is O(1) plus an insertion sort
//     over the handful of events sharing a bucket, and the head of the
//     earliest non-empty bucket is the next ring event. An occupancy bitmap
//     makes "find the next non-empty bucket" a few word tests. Consecutive
//     buckets share cache lines, so the part of the 128 KiB ring a run is
//     working in stays cache-resident between dispatches, and the window
//     (CalendarWindow, 4.19 µs) covers the distance at which a loaded DRAM
//     controller schedules its read completions.
//   - Far-future events — sleep syscall wake-ups, delayed fault
//     injections — sit in a conventional binary heap and are dispatched
//     straight from it when they come due; FarScheduled counts them.
//
// Host-side checks (context cancellation, the liveness watchdog) are not
// events: RunUntil polls them between dispatches (Poll), so they take no
// part in the dispatch order or the checkpoint.
//
// Both structures order events identically, so the dispatch order is
// bit-identical to a pure-heap queue; TestCalendarScripts, FuzzCalendar,
// TestCalendarMatchesReferenceHeap and the kernel golden-state tests hold the
// two implementations to the same dispatch logs and checkpoint bytes.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/bits"
)

// Tick is a point in (or span of) simulated time. One Tick is one picosecond,
// matching gem5's convention, so a 2 GHz clock has a period of 500 Ticks.
type Tick uint64

// Common time spans expressed in Ticks.
const (
	Picosecond  Tick = 1
	Nanosecond  Tick = 1000 * Picosecond
	Microsecond Tick = 1000 * Nanosecond
	Millisecond Tick = 1000 * Microsecond
	Second      Tick = 1000 * Millisecond
)

// MaxTick is the largest representable simulated time.
const MaxTick = Tick(^uint64(0))

// Standard event priorities. Lower values run earlier within the same tick.
const (
	PriDefault  = 0
	PriCPU      = -10 // CPU ticks run before device ticks within a cycle
	PriStats    = 50  // stats dumps observe the post-update state of a tick
	PriSimExit  = 100 // exit events run after everything else in their tick
	PriMinFirst = -1 << 30
)

// Calendar-ring geometry: calBuckets buckets of 2^calBucketBits ticks each.
// Both halves were chosen by measurement (PERFORMANCE.md §6 has the tables).
// The window, calBuckets << calBucketBits = 4 194 304 ticks, has to cover the
// distance at which a loaded DRAM controller schedules a read completion, or
// those events take the spill heap: 8.4% of a DDR4-4ch NVDLA run's events at
// the 65 536-tick window this replaced, and still 4.4% of a four-NVDLA
// DDR4-1ch run's at 262 144 ticks, where a completion is scheduled up to
// 3.3 µs ahead. The buckets have to be wide enough that the events of the
// next few dozen nanoseconds fall in a few cache lines of the ring (one-tick
// slots put every insert and pop on a line of its own, 512 KiB of them) and
// narrow enough that a bucket's list stays a handful of events: end to end
// 16 to 1 024 ticks read alike within the run-to-run spread, because clocked
// objects share their edges, but the queue/calendar microbenchmark, whose
// tickers start one tick apart, reads 33, 44, 48, 60 and 78 ns at 16, 64,
// 256, 512 and 1 024 ticks. 256 ticks is under the shortest clock period
// modelled (500), so no bucket holds two edges of one clock, and 2^14 of
// them is the smallest ring that reaches the window.
const (
	calBucketBits = 8
	calBuckets    = 1 << 14
	calBucketMask = calBuckets - 1
	calWords      = calBuckets / 64
)

// CalendarWindow is the span of simulated time the calendar ring covers: an
// event scheduled at least this far ahead of Now is filed in the spill heap
// (one scheduled up to a bucket width less may be too, depending on where in
// its bucket Now falls). Exported for benchmarks and tests that need an
// offset on a known side of the boundary.
const CalendarWindow = Tick(calBuckets) << calBucketBits

// Event is a schedulable unit of work. Create events with NewEvent (or
// EventQueue.ScheduleFunc) and schedule them on exactly one queue at a time.
//
// Ownership contract: an Event belongs to the component that created it and
// may be freely rescheduled once it is no longer pending (after dispatch, or
// after Deschedule). Events obtained through ScheduleOneShot are owned by the
// queue and are recycled immediately after dispatch — callers never see them
// and must not retain references from inside their own callbacks.
type Event struct {
	name string
	fn   func()
	when Tick
	prio int
	// rank is a stable arbitration key derived from the event name (FNV-64a).
	// Same-tick, same-priority events dispatch in rank order before falling
	// back to the insertion sequence, so the intra-tick order of events from
	// *different* components depends only on their names — not on the order
	// the components were constructed or happened to schedule in. Component
	// names are unique, so the seq tie-break is only ever consulted between
	// events of the same name, and the goldens and saved checkpoints hold
	// the order this key produces.
	rank uint64
	seq  uint64
	// index is the event's far-heap position, or one of the sentinel states
	// below when it is not in the heap.
	index     int
	next      *Event // intrusive link: calendar bucket list, or queue freelist
	scheduled bool
	oneShot   bool
	// owner attributes the event's dispatch time to a (component, kind)
	// pair when a Profiler is attached; see SetOwner. Always tagged (one
	// int32 store at creation), only read when profiling is on.
	owner OwnerID
}

// Event.index sentinels.
const (
	idxUnscheduled = -1
	idxNearRing    = -2
)

// nameRank hashes an event name with FNV-64a. The hash is computed once per
// event creation (or per one-shot rename) and cached in Event.rank.
func nameRank(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// NewEvent returns an unscheduled event that runs fn when dispatched.
// The name doubles as the event's stable arbitration identity: same-tick,
// same-priority ties dispatch in name-hash (rank) order, so names should be
// component-qualified and unique per component.
func NewEvent(name string, fn func()) *Event {
	return &Event{name: name, fn: fn, rank: nameRank(name), index: idxUnscheduled}
}

// NewEventPri is NewEvent with an explicit intra-tick priority.
func NewEventPri(name string, prio int, fn func()) *Event {
	return &Event{name: name, fn: fn, prio: prio, rank: nameRank(name), index: idxUnscheduled}
}

// Name returns the event's debug name.
func (e *Event) Name() string { return e.name }

// Scheduled reports whether the event is currently pending on a queue.
func (e *Event) Scheduled() bool { return e.scheduled }

// When returns the tick the event is scheduled for. Only meaningful while
// Scheduled() is true.
func (e *Event) When() Tick { return e.when }

// before is the dispatch order of two pending events: by tick, then by
// priority, then by name rank (stable across construction orders), then by
// insertion sequence (FIFO among same-name events). It orders the calendar
// buckets and must agree with eventHeap.Less, which the reference queue
// keeps as its own copy so that the oracle shares no comparator with the
// ring it checks.
func (e *Event) before(o *Event) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	if e.prio != o.prio {
		return e.prio < o.prio
	}
	if e.rank != o.rank {
		return e.rank < o.rank
	}
	return e.seq < o.seq
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
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
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = idxUnscheduled
	*h = old[:n-1]
	return e
}

// EventQueue is a deterministic single-threaded event queue. The zero value
// is not usable; construct with NewEventQueue (or, for differential testing
// against the historical pure-heap dispatcher, NewReferenceEventQueue).
type EventQueue struct {
	now        Tick
	seq        uint64
	exitReason string
	exitSet    bool
	stopSet    bool // arms stopAfter, below; kept here so the flags share a word
	// nearDirty forces a bitmap rescan after the cached nearBucket (below)
	// empties; ref selects the reference pure-heap dispatcher
	// (NewReferenceEventQueue).
	nearDirty bool
	ref       bool
	// dispatched is a plain counter on the Step hot path; the queue is
	// strictly single-threaded, so read it only from the sim goroutine
	// (host-side monitors aggregate it post-run via obs.CountEvents).
	dispatched uint64
	// elided is the part of dispatched that was applied in closed form by
	// Credit instead of being run; see Elided.
	elided uint64

	// curStamp identifies the dispatch context of the event currently (or
	// most recently) executing: its (when, prio, rank, seq). Port queues
	// capture it at insertion time so their arrival-tick ties resolve by the
	// *sender's* dispatch order, a key a checkpoint can store and a restored
	// queue keeps sorting by.
	curStamp Stamp
	// sameTick is what curStamp alone cannot tell a sleeping ticker (see
	// passed): the highest-ordered event of its tick that has scheduled
	// another event for that same tick — the child may order below its
	// parent and still run after it — or, once RunUntil has finished a tick,
	// a key above every event of that tick. Schedule writes it on its
	// same-tick path only, so the dispatch loop does not maintain it.
	sameTick orderKey

	// stopAfter, when stopSet, caps RunUntil: no event with a later tick is
	// dispatched and time does not advance past it. Unlike ExitSimLoop it is
	// not an event and consumes no sequence numbers or dispatch counts, so a
	// run that completes via stop-after leaves the same queue state as one
	// that was given the cap as its limit — what lets a run that detects
	// completion mid-flight end in a state a checkpoint split reproduces.
	stopAfter Tick

	// Calendar ring. Bucket b = when >> calBucketBits; every ring event's
	// bucket lies in [now's bucket, now's bucket + calBuckets), exactly one
	// lap, so slots[b&calBucketMask] holds events of one bucket only: an
	// intrusive list sorted by (when, prio, rank, seq). bits mirrors slot
	// occupancy for the next-bucket scan and lives in the queue itself, next
	// to the fields every dispatch reads; slots is nil on a reference queue.
	slots     *[calBuckets]*Event
	bits      [calWords]uint64
	nearCount int
	// nearBucket caches the earliest non-empty bucket (its absolute number,
	// not its ring index); nearDirty marks it stale. The next ring event is
	// always the head of nearBucket's list, so no cached tick can go stale
	// when a head is popped or descheduled.
	nearBucket uint64

	// far holds events calBuckets or more buckets ahead (and everything when
	// ref is set); they are dispatched straight from the heap when due.
	// farScheduled counts insertions into it.
	far          eventHeap
	farScheduled uint64

	// hooks holds what the run loops call besides events: the Settlers and
	// the host-side polls. Nil until the first registration.
	hooks *hooks

	// packetIDs is the machine's space-0 packet-ID counter (MintPacketID).
	packetIDs uint64

	// freeEvents recycles one-shot events dispatched via ScheduleOneShot.
	freeEvents *Event

	// Self-profiler state (prof.go). ownerKeys/ownerIDs intern attribution
	// owners whether or not a profiler is attached, so owner IDs are fixed
	// by deterministic Build order; prof is nil when profiling is off.
	ownerKeys    []ownerKey
	ownerIDs     map[ownerKey]OwnerID
	prof         *Profiler
	restoredAttr map[ownerKey]uint64
}

// NewEventQueue returns an empty queue positioned at tick 0.
func NewEventQueue() *EventQueue {
	return &EventQueue{slots: new([calBuckets]*Event)}
}

// NewReferenceEventQueue returns a queue that dispatches purely from the
// binary heap, bypassing the calendar ring. It exists so tests (and the
// kernel benchmark harness) can prove the hybrid queue reproduces the
// historical dispatch order bit-for-bit; simulations should use
// NewEventQueue.
func NewReferenceEventQueue() *EventQueue {
	return &EventQueue{ref: true}
}

// MintPacketID returns the next ID of the machine's space-0 packet-ID
// counter: one per queue, so one per simulated system, shared by every
// component of it that does not mint from an ID space of its own. A
// system's packet IDs therefore depend on nothing but its own run.
func (q *EventQueue) MintPacketID() uint64 {
	q.packetIDs++
	return q.packetIDs
}

// PacketIDs returns how many space-0 packet IDs the queue has minted: the
// mark a checkpoint records so a restored run mints past every ID in flight.
func (q *EventQueue) PacketIDs() uint64 { return q.packetIDs }

// SetPacketIDs reinstates a mark read from a checkpoint (see PacketIDs).
func (q *EventQueue) SetPacketIDs(n uint64) { q.packetIDs = n }

// Now returns the current simulated time.
func (q *EventQueue) Now() Tick { return q.now }

// Dispatched returns the total number of events the simulated machine has
// executed so far. It is the machine's count, not the host's: the checkpoint
// stream carries it, so it must not depend on how the host executes cycles,
// and an event a component applied in closed form (Credit) counts exactly as
// if it had been run. Dispatched() - Elided() is what the dispatch loop
// really did. Like the rest of the queue API it must be called from the
// simulation goroutine.
func (q *EventQueue) Dispatched() uint64 { return q.dispatched }

// Elided returns how many of the Dispatched events were never scheduled:
// clock edges a sleeping component credited arithmetically (Ticker.Credit).
// It is a host-side diagnostic like FarScheduled: not checkpointed, not part
// of any checkpoint, and read from the simulation goroutine only.
func (q *EventQueue) Elided() uint64 { return q.elided }

// Credit counts n events of the given owner as dispatched without running
// them, for a component that has applied their whole effect in closed form.
// The dispatch count and the self-profiler's exact per-owner count move as
// if the events had run (both are in the checkpoint stream); Elided records
// that they did not.
func (q *EventQueue) Credit(owner OwnerID, n uint64) {
	q.dispatched += n
	q.elided += n
	if p := q.prof; p != nil {
		p.counts[owner] += n
	}
}

// passed reports whether the dispatch order at the current tick has moved
// beyond e's (prio, rank): whether e, had it been pending for this tick all
// along, would already have run. An event's own dispatch has not passed it.
//
// The executing event's stamp answers this only while events run in key
// order, and a tick's events do not when one of them schedules a child for
// the same tick: the child may order below an event that has already run.
// Every such parent is folded into sameTick when it schedules (see
// Schedule), and by induction the highest-ordered event dispatched so far
// this tick is the larger of curStamp and sameTick: an event that ran before
// a higher-ordered one was scheduled, directly or through a chain of
// same-tick children, by that one or by a later one.
func (q *EventQueue) passed(e *Event) bool {
	hi := q.curStamp.key()
	if hi.less(q.sameTick) {
		hi = q.sameTick
	}
	return hi.when == q.now && orderKey{q.now, e.rank, int32(e.prio)}.less(hi)
}

// orderKey is a Stamp without its sequence number: what orders events of
// different names. It is laid out to take 24 bytes, not a Stamp's 32: the
// queue struct and its allocation header fill a 2 304-byte size class
// exactly, and one word more costs every system built 384 bytes
// (TestEventQueueFillsItsSizeClass).
type orderKey struct {
	when Tick
	rank uint64
	prio int32
}

func (s Stamp) key() orderKey { return orderKey{s.When, s.Rank, s.Prio} }

func (k orderKey) less(o orderKey) bool {
	if k.when != o.when {
		return k.when < o.when
	}
	if k.prio != o.prio {
		return k.prio < o.prio
	}
	return k.rank < o.rank
}

// FarScheduled returns how many events were filed in the spill heap instead
// of the calendar ring since the queue was built — the slow path a well-sized
// window keeps to µs-scale timers (on a reference queue, every event). It is
// a host-side diagnostic like the self-profiler's times: not checkpointed,
// not part of any checkpoint, and read from the simulation goroutine only.
func (q *EventQueue) FarScheduled() uint64 { return q.farScheduled }

// Empty reports whether no events are pending.
func (q *EventQueue) Empty() bool { return q.nearCount == 0 && len(q.far) == 0 }

// Pending returns the number of scheduled events.
func (q *EventQueue) Pending() int { return q.nearCount + len(q.far) }

// Schedule inserts e at absolute time when. Scheduling into the past is a
// programming error and panics, as the resulting simulation would be
// non-causal.
//
// Contract: an event may be pending on at most one (queue, tick) at a time.
// Scheduling an already-pending event panics, naming the event and both the
// pending and requested ticks; use Reschedule to move a pending event, or
// Deschedule it first. An event becomes schedulable again the moment its
// callback starts executing, so self-rescheduling tickers are fine.
func (q *EventQueue) Schedule(e *Event, when Tick) {
	if e.scheduled {
		panic(fmt.Sprintf("sim: event %q already scheduled for tick %d, cannot schedule for tick %d (use Reschedule, or Deschedule first)",
			e.name, e.when, when))
	}
	if when <= q.now {
		if when < q.now {
			panic(fmt.Sprintf("sim: event %q scheduled at %d, before now %d", e.name, when, q.now))
		}
		// A same-tick child: remember its parent for passed. Nested under the
		// causality test, so scheduling into the future costs what it did.
		if c := q.curStamp.key(); c.when == when && q.sameTick.less(c) {
			q.sameTick = c
		}
	}
	e.seq = q.seq
	q.seq++
	q.insert(e, when)
}

// insert files e (whose seq is already assigned) under its time class. Near
// means fewer than calBuckets buckets ahead of now's bucket — a distance in
// buckets, not in ticks: with now inside its bucket, an event up to a bucket
// width short of CalendarWindow ticks away can already belong to the next
// lap, where it would share a slot with now's own bucket. A near event is
// linked into its bucket in dispatch order, so the ring pops events exactly
// as the reference heap would.
func (q *EventQueue) insert(e *Event, when Tick) {
	e.when = when
	e.scheduled = true
	b := uint64(when >> calBucketBits)
	if q.ref || b-uint64(q.now>>calBucketBits) >= calBuckets {
		q.farScheduled++
		heap.Push(&q.far, e)
		return
	}
	e.index = idxNearRing
	si := b & calBucketMask
	head := q.slots[si]
	switch {
	case head == nil:
		e.next = nil
		q.slots[si] = e
		q.bits[si>>6] |= 1 << (si & 63)
	case e.before(head):
		e.next = head
		q.slots[si] = e
	default:
		p := head
		for p.next != nil && p.next.before(e) {
			p = p.next
		}
		e.next = p.next
		p.next = e
	}
	q.nearCount++
	if q.nearCount == 1 {
		q.nearBucket = b
		q.nearDirty = false
	} else if !q.nearDirty && b < q.nearBucket {
		q.nearBucket = b
	}
}

// removeNear unlinks a pending ring event (Deschedule support).
func (q *EventQueue) removeNear(e *Event) {
	b := uint64(e.when >> calBucketBits)
	si := b & calBucketMask
	head := q.slots[si]
	if head == e {
		q.slots[si] = e.next
	} else {
		p := head
		for p.next != e {
			p = p.next
		}
		p.next = e.next
	}
	e.next = nil
	e.index = idxUnscheduled
	q.nearCount--
	if q.slots[si] == nil {
		q.bits[si>>6] &^= 1 << (si & 63)
		if b == q.nearBucket {
			q.nearDirty = true
		}
	}
}

// scanNear finds the earliest non-empty bucket at or after now's. It must
// only be called while nearCount > 0.
func (q *EventQueue) scanNear() uint64 {
	nowB := uint64(q.now >> calBucketBits)
	base := nowB & calBucketMask
	wi := base >> 6
	// First word: ignore buckets behind now's, which belong to the far end of
	// the lap and are met again, unmasked, when the walk wraps round to it.
	w := q.bits[wi] &^ (1<<(base&63) - 1)
	for i := uint64(0); i <= calWords; i++ {
		if w != 0 {
			si := (wi+i)&(calWords-1)<<6 + uint64(bits.TrailingZeros64(w))
			return nowB + (si-base)&calBucketMask
		}
		w = q.bits[(wi+i+1)&(calWords-1)]
	}
	panic("sim: scanNear with empty ring")
}

// peek returns the next event in dispatch order without removing it, or nil
// when the queue is empty: the head of the earliest non-empty bucket or the
// top of the spill heap, whichever is before the other.
func (q *EventQueue) peek() *Event {
	var e *Event
	if q.nearCount > 0 {
		if q.nearDirty {
			q.nearBucket = q.scanNear()
			q.nearDirty = false
		}
		e = q.slots[q.nearBucket&calBucketMask]
	}
	if len(q.far) > 0 {
		if f := q.far[0]; e == nil || f.before(e) {
			e = f
		}
	}
	return e
}

// NextEventTick returns the tick of the next pending event, or false when the
// queue is empty. It does not disturb the queue and is the introspection hook
// external pacing loops use.
func (q *EventQueue) NextEventTick() (Tick, bool) {
	if e := q.peek(); e != nil {
		return e.when, true
	}
	return 0, false
}

// ScheduleFunc creates, schedules, and returns a one-shot event running fn.
// The returned event is caller-owned (it can be descheduled or rescheduled);
// use ScheduleOneShot when no handle is needed — it recycles events through
// an internal freelist and is allocation-free in steady state.
func (q *EventQueue) ScheduleFunc(name string, when Tick, fn func()) *Event {
	e := NewEvent(name, fn)
	q.Schedule(e, when)
	return e
}

// ScheduleOneShot schedules fn to run once at the given absolute tick using
// a queue-owned pooled event. No handle is returned: the event cannot be
// descheduled, and it is recycled into the queue's freelist as soon as the
// callback returns (unless the callback re-scheduled it, which only the
// queue itself can observe). Use it for fire-and-forget work — fault
// injections, delayed retries — where ScheduleFunc's per-call allocation
// would accumulate.
func (q *EventQueue) ScheduleOneShot(name string, when Tick, fn func()) {
	q.ScheduleOneShotOwned(name, when, 0, fn)
}

// ScheduleOneShotOwned is ScheduleOneShot with an attribution owner for the
// self-profiler; the pooled event carries the owner for this dispatch only.
func (q *EventQueue) ScheduleOneShotOwned(name string, when Tick, owner OwnerID, fn func()) {
	e := q.freeEvents
	if e != nil {
		q.freeEvents = e.next
		e.next = nil
		e.name = name
		e.rank = nameRank(name)
		e.fn = fn
		e.prio = PriDefault
	} else {
		e = &Event{name: name, fn: fn, rank: nameRank(name), index: idxUnscheduled, oneShot: true}
	}
	e.owner = owner
	q.Schedule(e, when)
}

// recycleEvent returns a dispatched one-shot event to the freelist, dropping
// the callback so captured state is not retained.
func (q *EventQueue) recycleEvent(e *Event) {
	e.fn = nil
	e.name = ""
	e.next = q.freeEvents
	q.freeEvents = e
}

// Deschedule removes a pending event from the queue. The event may be
// scheduled again afterwards. Descheduling an event that is not pending
// panics.
func (q *EventQueue) Deschedule(e *Event) {
	if !e.scheduled {
		panic(fmt.Sprintf("sim: descheduling unscheduled event %q", e.name))
	}
	if e.index >= 0 {
		heap.Remove(&q.far, e.index)
	} else {
		q.removeNear(e)
	}
	e.scheduled = false
}

// Reschedule moves a pending event to a new time; if the event is not
// scheduled it is simply scheduled.
func (q *EventQueue) Reschedule(e *Event, when Tick) {
	if e.scheduled {
		q.Deschedule(e)
	}
	q.Schedule(e, when)
}

// Step dispatches the single next event. It returns false when the queue is
// empty or an exit has been requested.
func (q *EventQueue) Step() bool {
	if q.exitSet {
		return false
	}
	if q.ref {
		return q.stepRef()
	}
	e := q.peek()
	if e == nil {
		return false
	}
	q.dispatch(e)
	return true
}

// dispatch removes e, the event peek returned, from whichever structure
// holds it and runs it.
func (q *EventQueue) dispatch(e *Event) {
	if e.index >= 0 {
		heap.Pop(&q.far)
	} else {
		// e heads the earliest bucket.
		si := uint64(e.when>>calBucketBits) & calBucketMask
		q.slots[si] = e.next
		if e.next == nil {
			q.bits[si>>6] &^= 1 << (si & 63)
			q.nearDirty = true
		}
		e.next = nil
		e.index = idxUnscheduled
		q.nearCount--
	}
	q.now = e.when
	e.scheduled = false
	q.dispatched++
	q.curStamp = Stamp{When: e.when, Prio: int32(e.prio), Rank: e.rank, Seq: e.seq}
	if p := q.prof; p != nil {
		p.hit(e.owner)
	}
	e.fn()
	if e.oneShot && !e.scheduled {
		q.recycleEvent(e)
	}
}

// stepRef is the reference pure-heap dispatcher (the pre-calendar-queue
// implementation, kept for differential testing).
func (q *EventQueue) stepRef() bool {
	if len(q.far) == 0 {
		return false
	}
	e := heap.Pop(&q.far).(*Event)
	q.now = e.when
	e.scheduled = false
	q.dispatched++
	q.curStamp = Stamp{When: e.when, Prio: int32(e.prio), Rank: e.rank, Seq: e.seq}
	if p := q.prof; p != nil {
		p.hit(e.owner)
	}
	e.fn()
	if e.oneShot && !e.scheduled {
		q.recycleEvent(e)
	}
	return true
}

// ExitSimLoop requests that Run/RunUntil return after the current event. It
// mirrors gem5's exit_sim_loop mechanism; the reason is retrievable with
// ExitReason.
func (q *EventQueue) ExitSimLoop(reason string) {
	q.exitReason = reason
	q.exitSet = true
}

// ExitReason returns the reason passed to ExitSimLoop, or "" if none.
func (q *EventQueue) ExitReason() string { return q.exitReason }

// ClearExit re-arms the queue after an exit so simulation can be resumed.
func (q *EventQueue) ClearExit() { q.exitSet = false; q.exitReason = "" }

// Run dispatches events until the queue drains or ExitSimLoop is called,
// then settles the registered Settlers. It returns the exit reason ("" if
// the queue simply drained).
func (q *EventQueue) Run() string {
	for q.Step() {
	}
	q.settle()
	return q.exitReason
}

// PendingSummaries returns short one-line descriptions of up to max pending
// events in dispatch order (all of them when max <= 0). It is a diagnostic
// introspection hook — the liveness watchdog dumps it when a simulation
// wedges — and does not disturb the queue.
func (q *EventQueue) PendingSummaries(max int) []string {
	evs := q.pendingInOrder()
	if max > 0 && len(evs) > max {
		evs = evs[:max]
	}
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = fmt.Sprintf("%s @%d prio=%d", e.name, e.when, e.prio)
	}
	return out
}

// RunUntil dispatches events with tick <= limit (further capped by
// SetStopAfter when armed), calling the registered polls as their deadlines
// pass (Poll). Time advances to the effective limit if the queue drains
// earlier. The registered Settlers are settled before it returns. Returns
// the exit reason ("" if none).
func (q *EventQueue) RunUntil(limit Tick) string {
	for !q.exitSet {
		eff := limit
		if q.stopSet && q.stopAfter < eff {
			eff = q.stopAfter
		}
		bound := eff
		if h := q.hooks; h != nil && h.pollAt < bound {
			bound = h.pollAt
		}
		e := q.peek()
		if e == nil || e.when > bound {
			if q.poll(eff) {
				continue
			}
			break
		}
		if q.ref {
			q.stepRef()
		} else {
			q.dispatch(e)
		}
	}
	eff := limit
	if q.stopSet && q.stopAfter < eff {
		eff = q.stopAfter
	}
	if !q.exitSet {
		if q.now < eff {
			q.now = eff
		}
		if q.now == eff {
			// Every event of this tick has run, whatever its key: a key
			// above them all tells passed so until time moves on.
			q.sameTick = orderKey{eff, math.MaxUint64, math.MaxInt32}
		}
	}
	q.settle()
	return q.exitReason
}

// Stamp is the identity of one event dispatch: the (when, prio, rank, seq)
// key under which the event was ordered. Stamps order exactly like the
// dispatch order itself, so "sort by stamp" reproduces "order of the
// senders' side effects" — the property port queues use to break
// arrival-tick ties by who sent first rather than by who was inserted
// first. The Seq field is only ever compared between dispatches of the same
// event name (equal Rank), so a checkpoint can renumber it per name
// (port/ckpt.go) without changing any comparison.
type Stamp struct {
	When Tick
	Prio int32
	Rank uint64
	Seq  uint64
}

// Less orders stamps by (when, prio, rank, seq).
func (s Stamp) Less(o Stamp) bool {
	if s.When != o.When {
		return s.When < o.When
	}
	if s.Prio != o.Prio {
		return s.Prio < o.Prio
	}
	if s.Rank != o.Rank {
		return s.Rank < o.Rank
	}
	return s.Seq < o.Seq
}

// CurrentStamp returns the dispatch stamp of the event currently executing
// (or, between dispatches, the most recently executed one; the zero Stamp
// before any event has run). Single-threaded like the rest of the queue API.
func (q *EventQueue) CurrentStamp() Stamp { return q.curStamp }

// SetStopAfter caps RunUntil at tick t: events scheduled later stay pending
// and simulated time stops at t. Unlike ExitSimLoop this consumes no event,
// sequence number or dispatch count — completion detected mid-run (the last
// NVDLA interrupt) can end the run at a chosen tick while leaving queue state
// identical to a run that was given exactly that limit.
func (q *EventQueue) SetStopAfter(t Tick) {
	q.stopAfter = t
	q.stopSet = true
}

// ClearStopAfter disarms SetStopAfter.
func (q *EventQueue) ClearStopAfter() { q.stopSet = false; q.stopAfter = 0 }

// StopAfter returns the armed stop-after tick, or false when disarmed.
func (q *EventQueue) StopAfter() (Tick, bool) { return q.stopAfter, q.stopSet }
