package experiments

import (
	"testing"

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
// map or queue doubling as a busier layer starts — at well under one
// allocation per window, which AllocsPerRun, counting whole allocations per
// run, reads as 0. The systems bind unchecked: a port protocol checker
// records every packet it sees.
func TestDSESteadyStateAllocatesNothing(t *testing.T) {
	// Not parallel: AllocsPerRun counts every goroutine's allocations.
	const warmup = 30 * sim.Microsecond
	for _, spec := range []RunSpec{
		{Workload: "sanity3", NVDLAs: 4, Memory: "DDR4-1ch", Inflight: 240, Scale: 4, Limit: 8 * sim.Second},
		{Workload: "googlenet", NVDLAs: 2, Memory: "HBM", Inflight: 240, Scale: 2, Limit: 8 * sim.Second},
		{Workload: "googlenet", NVDLAs: 1, Memory: "ideal", Inflight: 240, Scale: 2, Limit: 8 * sim.Second},
	} {
		s, err := buildPoint(spec, soc.Oracles{Ports: port.CheckOff})
		if err != nil {
			t.Fatal(err)
		}
		at := warmup
		s.Queue.RunUntil(at)
		for _, w := range []sim.Tick{sim.Microsecond, 10 * sim.Microsecond} {
			allocs := testing.AllocsPerRun(5, func() {
				at += w
				s.Queue.RunUntil(at)
			})
			if allocs != 0 {
				t.Errorf("%v: %.1f allocations per %d ps window, want 0", spec, allocs, w)
			}
		}
		for i, w := range s.NVDLAWrappers {
			if w.Done() {
				t.Errorf("%v: NVDLA %d finished inside the windows", spec, i)
			}
		}
	}
}
