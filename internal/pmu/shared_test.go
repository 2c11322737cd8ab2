package pmu_test

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/experiments"
	"gem5rtl/internal/pmu"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/workload"
)

// pmuRunDigest builds a +PMU system, runs a small sort benchmark on it with
// the threshold armed, and digests what the run did to the PMU: its own
// checkpoint section (model cycle, every signal, the wrapper's queues) and
// the run's final tick, dispatch count and committed instructions. A
// whole-system state digest would also cover packet IDs, which come from a
// process-wide counter that concurrent runs interleave.
func pmuRunDigest() (uint64, error) {
	cfg := soc.DefaultConfig()
	cfg.Cores = 1
	cfg.WithPMU = true
	s, err := soc.Build(cfg)
	if err != nil {
		return 0, err
	}
	host := experiments.NewAXIHost(s.Queue)
	port.Bind(host.Port(), s.PMU.CPUPort(0))
	s.PMU.Start()
	host.Write(pmu.RegEnable, 0x3F)
	host.Write(pmu.RegThreshSel, pmu.EvCycle)
	host.Write(pmu.RegThreshVal, 1000)
	if err := s.LoadProgram(0, workload.SortBenchmark(workload.SortParams{N: 16, SleepUs: 12})); err != nil {
		return 0, err
	}
	s.Cores[0].OnExit = func(int64) { s.Queue.ExitSimLoop("exit") }
	s.StartCores(0)
	s.Queue.RunUntil(sim.MaxTick)
	if exited, _ := s.Cores[0].Exited(); !exited {
		return 0, fmt.Errorf("sort benchmark did not exit")
	}
	h := fnv.New64a()
	w := ckpt.NewWriter(h)
	if err := s.PMUWrapper.Checkpoint(ckpt.Saving(w)); err != nil {
		return 0, err
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	fmt.Fprintf(h, "|%d|%d|%d", s.Queue.Now(), s.Queue.Dispatched(), s.Cores[0].Stats().Committed)
	return h.Sum64(), nil
}

// TestNewWrapperReusesTheCompiledPMU: after the first, a wrapper costs a
// model instance, not a parse, an elaboration and a compile (about 3 000
// allocations, what CompileModelEngine still spends on every call).
func TestNewWrapperReusesTheCompiledPMU(t *testing.T) {
	if _, err := pmu.NewWrapper(pmu.NumCounters); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := pmu.NewWrapper(pmu.NumCounters); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 50 {
		t.Errorf("NewWrapper allocates %.0f times, want <= 50", allocs)
	}
}

// TestSharedCompiledPMU: every system in a process runs the PMU from one
// compiled program. Two goroutines building and running +PMU systems at once
// must end where serial builds do — under -race, the check that nothing
// writes the shared circuit or program.
func TestSharedCompiledPMU(t *testing.T) {
	want, err := pmuRunDigest()
	if err != nil {
		t.Fatal(err)
	}
	var got [2]uint64
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = pmuRunDigest()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want {
			t.Errorf("goroutine %d: digest %016x, serial %016x", i, got[i], want)
		}
	}
	if again, err := pmuRunDigest(); err != nil || again != want {
		t.Errorf("serial rerun: digest %016x (%v), first %016x", again, err, want)
	}
}
