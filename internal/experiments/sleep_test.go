package experiments

import (
	"context"
	"sort"
	"testing"

	"gem5rtl/internal/pmu"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/workload"
)

// sleepSplitSpecs are the machines the sleep differential splits: ideal
// memory (a response every cycle, the object hardly sleeps), the contended
// cell (four accelerators at the cap on one channel, asleep most of the
// time), a latency-bound cap of 4 (the send queue waits at the cap across
// sleeps), two accelerators, and the compute-heavy trace on DRAM, HBM and
// ideal memory.
func sleepSplitSpecs() []RunSpec {
	p := DSEParams{Scale: 64, Limit: 8 * sim.Second}
	return []RunSpec{
		p.Spec("sanity3", 1, "ideal", 240),
		p.Spec("sanity3", 4, "DDR4-1ch", 240),
		p.Spec("sanity3", 1, "DDR4-4ch", 4),
		p.Spec("sanity3", 2, "DDR4-2ch", 64),
		p.Spec("googlenet", 1, "DDR4-4ch", 240),
		p.Spec("googlenet", 2, "HBM", 16),
		p.Spec("googlenet", 1, "ideal", 4),
	}
}

// sleepSplitTicks is the ladder of save ticks: around the first model edges,
// a run of primes (never on an edge), a few exact edges further out, and an
// LCG stream below 9 µs.
func sleepSplitTicks() []sim.Tick {
	ticks := []sim.Tick{1, 499, 500, 999, 1000, 1001, 1999, 2000, 2001,
		7, 101, 1009, 2003, 5003, 10007, 50021, 100003, 250007, 500009, 1000003, 2000003, 4000037, 8000009,
		3000, 64000, 777000, 2500000, 6000000}
	x := uint64(12345)
	for len(ticks) < 44 {
		x = x*6364136223846793005 + 1442695040888963407
		ticks = append(ticks, sim.Tick(x>>33)%(9*sim.Microsecond))
	}
	return ticks
}

// splitWitness is what one run split at a tick leaves behind.
type splitWitness struct {
	atSplit, atEnd uint64 // StateHash
	reached, done  sim.Tick
	remaining      int
}

// runSplit runs spec to the split tick, hashes the machine, runs it to
// completion and hashes it again. oracle builds the per-cycle machine.
func runSplit(t *testing.T, spec RunSpec, split sim.Tick, oracle bool) (splitWitness, *soc.System) {
	t.Helper()
	s, err := buildPoint(spec, soc.Oracles{PerCycle: oracle})
	if err != nil {
		t.Fatalf("%v: build: %v", spec, err)
	}
	var w splitWitness
	w.reached, w.remaining, err = s.RunNVDLAPhase(context.Background(), split)
	if err != nil {
		t.Fatalf("%v: run to %d: %v", spec, split, err)
	}
	if w.atSplit, err = s.StateHash(); err != nil {
		t.Fatalf("%v: hash at %d: %v", spec, split, err)
	}
	if w.done, err = s.RunUntilNVDLAsDoneCtx(context.Background(), spec.Limit); err != nil {
		t.Fatalf("%v: run from %d: %v", spec, split, err)
	}
	if w.atEnd, err = s.StateHash(); err != nil {
		t.Fatalf("%v: final hash: %v", spec, err)
	}
	return w, s
}

// TestSleepingMatchesPerCycleAtEverySplit is the system-level differential:
// for every spec and every save tick, the machine whose RTLObjects sleep and
// the one that ticks its accelerators on every edge serialise to the same
// bytes at the split and at completion. The mid-run hash is what sees the
// NVDLA's Quiet and Advance: a horizon one cycle long, a fetchTile not
// stepped or a cycle credited to the wrong counter is in the checkpoint
// stream long before it is in a final tick.
func TestSleepingMatchesPerCycleAtEverySplit(t *testing.T) {
	if testing.Short() {
		t.Skip("7 specs x 44 splits x 2 machines")
	}
	t.Parallel()
	for _, spec := range sleepSplitSpecs() {
		var elided, ticks uint64
		for _, split := range sleepSplitTicks() {
			want, _ := runSplit(t, spec, split, true)
			got, s := runSplit(t, spec, split, false)
			if got != want {
				t.Errorf("%v split at %d:\n sleeping  %+v\n per-cycle %+v", spec, split, got, want)
			}
			elided += s.Queue.Elided()
			for _, o := range s.NVDLAs {
				ticks += o.Stats().Ticks
			}
		}
		t.Logf("%v: %d of %d accelerator cycles applied in closed form", spec, elided, ticks)
		if elided == 0 {
			t.Errorf("%v: nothing was elided: the differential compared the oracle with itself", spec)
		}
	}
}

// requireMostlyElided runs spec to completion and checks the mechanism by a
// count: at least 85% of the accelerators' cycles credited, not dispatched.
func requireMostlyElided(t *testing.T, spec RunSpec) {
	t.Helper()
	s, err := buildPoint(spec, soc.Oracles{})
	if err != nil {
		t.Fatalf("%v: build: %v", spec, err)
	}
	if _, err := s.RunUntilNVDLAsDoneCtx(context.Background(), spec.Limit); err != nil {
		t.Fatalf("%v: run: %v", spec, err)
	}
	checkMostlyElided(t, spec, s)
}

// checkMostlyElided is requireMostlyElided's assertion on a system that has
// already run.
func checkMostlyElided(t *testing.T, spec RunSpec, s *soc.System) {
	t.Helper()
	var ticks uint64
	for _, o := range s.NVDLAs {
		ticks += o.Stats().Ticks
	}
	elided := s.Queue.Elided()
	t.Logf("%v: %d of %d accelerator cycles elided (%.1f%%)", spec, elided, ticks, 100*float64(elided)/float64(ticks))
	if elided*100 < ticks*85 {
		t.Errorf("%v: only %d of %d accelerator cycles elided, under 85%%", spec, elided, ticks)
	}
}

// pmuSortSystem builds the Table 2 machine — one core, the PMU programmed
// over AXI with every event line enabled and the threshold on the cycle
// counter at thresh (0 disables it) — with a small sort benchmark started.
// oracle builds the per-cycle machine.
func pmuSortSystem(t *testing.T, thresh uint32, oracle bool) *soc.System {
	t.Helper()
	cfg := soc.DefaultConfig()
	cfg.Cores = 1
	cfg.WithPMU = true
	s, err := soc.BuildWithOracles(cfg, soc.Oracles{PerCycle: oracle})
	if err != nil {
		t.Fatal(err)
	}
	host := NewAXIHost(s.Queue)
	port.Bind(host.p, s.PMU.CPUPort(0))
	s.PMU.Start()
	host.Write(pmu.RegEnable, 0x3F)
	host.Write(pmu.RegThreshSel, pmu.EvCycle)
	host.Write(pmu.RegThreshVal, thresh)
	if err := s.LoadProgram(0, workload.SortBenchmark(workload.SortParams{N: 16, SleepUs: 12})); err != nil {
		t.Fatal(err)
	}
	s.Cores[0].OnExit = func(int64) { s.Queue.ExitSimLoop("exit") }
	s.StartCores(0)
	return s
}

// pmuSleepStarts runs the benchmark once and returns the ticks at which the
// core goes to sleep: the last commit before each gap of 6 µs or more.
func pmuSleepStarts(t *testing.T) []sim.Tick {
	t.Helper()
	s := pmuSortSystem(t, 0, true)
	var last sim.Tick
	var starts []sim.Tick
	tap := s.Cores[0].OnCommit
	s.Cores[0].OnCommit = func(n int) {
		if n > 0 {
			if now := s.Queue.Now(); now-last >= 6*sim.Microsecond {
				starts = append(starts, last)
			}
			last = s.Queue.Now()
		}
		tap(n)
	}
	s.Queue.RunUntil(sim.MaxTick)
	if len(starts) != 3 {
		t.Fatalf("found %d sleeps in the sort benchmark, want 3", len(starts))
	}
	return starts
}

func mustStateHash(t *testing.T, s *soc.System) uint64 {
	t.Helper()
	h, err := s.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestPMUSleepingMatchesPerCycleAtEverySplit is the split differential for
// the PMU's closed forms: at three thresholds (0, off: the stretch has no
// end; 1 000 and 10 000 cycles), split at every save tick of the ladder
// after each of four offsets — the start of the run and the start of each
// of the core's three sleeps, where the PMU is asleep — the machine whose
// PMU sleeps serialises to the per-cycle machine's bytes at the split and at
// exit. A save wakes the PMU, so each split is a separate run.
func TestPMUSleepingMatchesPerCycleAtEverySplit(t *testing.T) {
	if testing.Short() {
		t.Skip("3 thresholds x 176 splits")
	}
	t.Parallel()
	var splits []sim.Tick
	for _, off := range append([]sim.Tick{0}, pmuSleepStarts(t)...) {
		for _, at := range sleepSplitTicks() {
			splits = append(splits, off+at)
		}
	}
	sort.Slice(splits, func(i, j int) bool { return splits[i] < splits[j] })
	for _, thresh := range []uint32{0, 1000, 10000} {
		// The per-cycle machine is never asleep, so saving it changes
		// nothing: one run hashes it at every split.
		or := pmuSortSystem(t, thresh, true)
		want := make([]uint64, len(splits))
		for i, at := range splits {
			or.Queue.RunUntil(at)
			want[i] = mustStateHash(t, or)
		}
		or.Queue.RunUntil(sim.MaxTick)
		wantEnd := mustStateHash(t, or)
		var elided, ticks uint64
		for i, at := range splits {
			s := pmuSortSystem(t, thresh, false)
			s.Queue.RunUntil(at)
			if got := mustStateHash(t, s); got != want[i] {
				t.Errorf("threshold %d, split at %d: state hash %016x, per-cycle %016x", thresh, at, got, want[i])
			}
			s.Queue.RunUntil(sim.MaxTick)
			if got := mustStateHash(t, s); got != wantEnd {
				t.Errorf("threshold %d, split at %d: final state hash %016x, per-cycle %016x", thresh, at, got, wantEnd)
			}
			elided += s.Queue.Elided()
			ticks += s.PMU.Stats().Ticks
		}
		t.Logf("threshold %d: %d of %d PMU cycles applied in closed form", thresh, elided, ticks)
		if elided == 0 {
			t.Errorf("threshold %d: nothing was elided: the differential compared the oracle with itself", thresh)
		}
	}
}

// TestPMUFaultCampaignMatchesPerCycle: a state flip is a back door into a
// PMU that is asleep through the core's sleeps as often as not. Every fault
// of a campaign must be classified, with the same evidence, as it is on the
// machine that ticks the PMU every cycle.
func TestPMUFaultCampaignMatchesPerCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("two PMU campaigns")
	}
	t.Parallel()
	c := PMUCampaign{Seed: 5, Count: 8}
	got, err := Runner{Workers: 1}.PMUFaultCampaign(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Runner{Workers: 1, oracles: soc.Oracles{PerCycle: true}}.PMUFaultCampaign(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fault %d:\n sleeping  %+v\n per-cycle %+v", i, got[i], want[i])
		}
	}
}
