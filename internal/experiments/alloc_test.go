package experiments

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
)

// TestDSESteadyStateAllocatesNothing: an NVDLA full-system point allocates
// while it sets up and while its pools and queues grow to the run's high
// water, and not otherwise. Past a warm-up every DMA packet (posted writes
// included), transaction record, DRAM request and read tracker is recycled,
// so windows of simulated time in the middle of the run allocate nothing: on
// the contended memory (4 NVDLAs on DDR4-1ch), on the wide one (2 on HBM) and
// on the ideal baseline. What is left is a new high water now and then — a
// pool or queue growing as a busier layer starts, a memory page written for
// the first time — at well under one allocation per window, which
// AllocsPerRun, counting whole allocations per run, reads as 0.
//
// A high water is a property of the machine, so every window from 30 µs to
// 150 µs (or to the first completion) must also count the same
// MemStats.Mallocs in two builds of the point: an allocation that comes and
// goes with a map's hash seed fails here even where AllocsPerRun rounds it
// away. The systems bind
// unchecked: a port protocol checker records every packet it sees.
func TestDSESteadyStateAllocatesNothing(t *testing.T) {
	// Not parallel: both counts take in every goroutine's allocations, and
	// one P keeps the runtime from starting threads inside a window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, spec := range []RunSpec{
		{Workload: "sanity3", NVDLAs: 4, Memory: "DDR4-1ch", Inflight: 240, Scale: 4, Limit: 8 * sim.Second},
		{Workload: "googlenet", NVDLAs: 2, Memory: "HBM", Inflight: 240, Scale: 2, Limit: 8 * sim.Second},
		{Workload: "googlenet", NVDLAs: 1, Memory: "ideal", Inflight: 240, Scale: 2, Limit: 8 * sim.Second},
	} {
		first, second := windowAllocs(t, spec), windowAllocs(t, spec)
		if !slices.Equal(first, second) {
			t.Errorf("%v: allocations per window differ between two builds:\n %v\n %v", spec, first, second)
		}
	}
}

// windowAllocs builds spec, runs it to 30 µs, holds two series of windows
// to 0 allocations per run under AllocsPerRun, and returns the
// MemStats.Mallocs difference of every window from 30 µs to 150 µs or to the
// first accelerator's completion (the two googlenet points finish at about
// 138 µs).
func windowAllocs(t *testing.T, spec RunSpec) []uint64 {
	t.Helper()
	const warmup, end = 30 * sim.Microsecond, 150 * sim.Microsecond
	s, err := buildPoint(spec, soc.Oracles{Ports: port.CheckOff})
	if err != nil {
		t.Fatal(err)
	}
	at := warmup
	s.Queue.RunUntil(at)
	settle()
	var counts []uint64
	var before, after runtime.MemStats
	window := func(w sim.Tick) {
		runtime.ReadMemStats(&before)
		at += w
		s.Queue.RunUntil(at)
		runtime.ReadMemStats(&after)
		counts = append(counts, after.Mallocs-before.Mallocs)
	}
	counts = make([]uint64, 0, 32)
	for _, w := range []sim.Tick{sim.Microsecond, 10 * sim.Microsecond} {
		allocs := testing.AllocsPerRun(5, func() { window(w) })
		if allocs != 0 {
			t.Errorf("%v: %.1f allocations per %d ps window, want 0", spec, allocs, w)
		}
	}
	for i, w := range s.NVDLAWrappers {
		if w.Done() {
			t.Errorf("%v: NVDLA %d finished inside the windows", spec, i)
		}
	}
	for at < end && !anyDone(s) {
		window(min(10*sim.Microsecond, end-at))
	}
	return counts
}

// anyDone reports whether one of s's accelerators has finished its trace.
func anyDone(s *soc.System) bool {
	for _, w := range s.NVDLAWrappers {
		if w.Done() {
			return true
		}
	}
	return false
}

// settle collects the garbage of the build and the warm-up and parks the
// test for a moment, so the runtime's own work after a collection (the
// unique package's map cleanup allocates) runs before the first window
// rather than inside one.
func settle() {
	runtime.GC()
	time.Sleep(time.Millisecond)
}
