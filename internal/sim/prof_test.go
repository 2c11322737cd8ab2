package sim

import (
	"testing"

	"gem5rtl/internal/conform"
)

// TestDispatchNoProfilerZeroAllocs pins the zero-cost-when-off contract: with
// no profiler attached, dispatching owned one-shot events allocates nothing
// on the hot path (the recycled-event pool absorbs the Event itself).
func TestDispatchNoProfilerZeroAllocs(t *testing.T) {
	q := NewEventQueue()
	owner := q.Owner("cpu0", "tick")
	// Prime the event recycle pool.
	q.ScheduleOneShotOwned("prime", q.Now()+1, owner, func() {})
	for q.Step() {
	}
	when := q.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		when++
		q.ScheduleOneShotOwned("e", when, owner, func() {})
		q.Step()
	})
	if allocs != 0 {
		t.Fatalf("dispatch with profiling off allocates %v per event, want 0", allocs)
	}
}

// TestProfilerExactCounts checks that per-owner event counts are exact: every
// dispatch of an owned event increments exactly its owner, untagged events
// charge the reserved unattributed owner, and Enter/Exit phase attribution
// counts once per Enter.
func TestProfilerExactCounts(t *testing.T) {
	q := NewEventQueue()
	p := q.AttachProfiler(4)
	a := q.Owner("cpu0", "tick")
	b := q.Owner("dram", "respond")
	phase := q.Owner("pmu0", "rtl-comb")
	for i := 0; i < 10; i++ {
		q.ScheduleOneShotOwned("a", Tick(i+1), a, func() {})
	}
	for i := 0; i < 7; i++ {
		q.ScheduleOneShotOwned("b", Tick(i+1), b, func() {
			prev := p.Enter(phase)
			p.Exit(prev)
		})
	}
	for i := 0; i < 3; i++ {
		q.ScheduleOneShot("untagged", Tick(i+1), func() {})
	}
	for q.Step() {
	}
	want := map[string]uint64{
		"cpu0/tick":               10,
		"dram/respond":            7,
		"pmu0/rtl-comb":           7,
		"(unattributed)/dispatch": 3,
	}
	got := map[string]uint64{}
	for _, s := range p.Stats() {
		got[s.Component+"/"+s.Kind] = s.Events
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("owner %s: %d events, want %d (all: %v)", k, got[k], n, got)
		}
	}
}

// TestOwnerInterningStable checks that interning is idempotent and that the
// reserved pair maps to the zero ID rather than minting a new owner.
func TestOwnerInterningStable(t *testing.T) {
	q := NewEventQueue()
	a1 := q.Owner("noc", "xfer")
	a2 := q.Owner("noc", "xfer")
	if a1 != a2 {
		t.Fatalf("re-interning minted a new ID: %d vs %d", a1, a2)
	}
	if id := q.Owner("", ""); id != 0 {
		t.Fatalf("reserved owner interned as %d, want 0", id)
	}
	if c, k := q.OwnerName(a1); c != "noc" || k != "xfer" {
		t.Fatalf("OwnerName(%d) = %q/%q", a1, c, k)
	}
}

// TestProfilerCheckpointRoundTrip saves a profiled queue mid-run, restores it
// into a fresh queue, and requires the combined event-count attribution to
// equal the uninterrupted run's exactly. Host-time shares are deliberately
// not serialised; only counts must survive.
func TestProfilerCheckpointRoundTrip(t *testing.T) {
	run := func(q *EventQueue, from, to int, owner OwnerID) {
		for i := from; i < to; i++ {
			q.ScheduleOneShotOwned("e", Tick(i+1), owner, func() {})
		}
		for q.Step() {
		}
	}

	// Uninterrupted reference.
	ref := NewEventQueue()
	refP := ref.AttachProfiler(8)
	run(ref, 0, 100, ref.Owner("cpu0", "tick"))

	// Prefix run, checkpoint, resume.
	q1 := NewEventQueue()
	q1.AttachProfiler(8)
	run(q1, 0, 40, q1.Owner("cpu0", "tick"))
	q2 := NewEventQueue()
	conform.Restore(t, conform.Save(t, q1), q2)
	p2 := q2.AttachProfiler(8) // attach after restore: counts must fold in
	run(q2, 40, 100, q2.Owner("cpu0", "tick"))

	refCounts := map[string]uint64{}
	for _, s := range refP.Stats() {
		refCounts[s.Component+"/"+s.Kind] = s.Events
	}
	gotCounts := map[string]uint64{}
	for _, s := range p2.Stats() {
		gotCounts[s.Component+"/"+s.Kind] = s.Events
	}
	if len(gotCounts) != len(refCounts) {
		t.Fatalf("restored attribution has %d owners, reference %d: %v vs %v",
			len(gotCounts), len(refCounts), gotCounts, refCounts)
	}
	for k, n := range refCounts {
		if gotCounts[k] != n {
			t.Errorf("owner %s: restored run counted %d events, reference %d", k, gotCounts[k], n)
		}
	}
	if q2.Dispatched() != ref.Dispatched() {
		t.Errorf("dispatched %d events after restore, reference %d", q2.Dispatched(), ref.Dispatched())
	}
}
