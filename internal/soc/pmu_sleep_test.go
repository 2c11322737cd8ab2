package soc_test

import (
	"io"
	"testing"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/pmu"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/workload"
)

// runPMUSort runs the Table 2 configuration — one core, the PMU programmed
// over AXI with every event line enabled and the threshold on the cycle
// counter — through the sort benchmark to its exit. edit adjusts the config;
// o selects the oracles to build on.
func runPMUSort(t *testing.T, n, sleepUs int, edit func(*soc.Config), o soc.Oracles) *soc.System {
	t.Helper()
	cfg := soc.DefaultConfig()
	cfg.Cores = 1
	cfg.WithPMU = true
	if edit != nil {
		edit(&cfg)
	}
	s, err := soc.BuildWithOracles(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	host := experiments.NewAXIHost(s.Queue)
	port.Bind(host.Port(), s.PMU.CPUPort(0))
	s.PMU.Start()
	host.Write(pmu.RegEnable, 0x3F)
	host.Write(pmu.RegThreshSel, pmu.EvCycle)
	host.Write(pmu.RegThreshVal, 10000)
	if err := s.LoadProgram(0, workload.SortBenchmark(workload.SortParams{N: n, SleepUs: sleepUs})); err != nil {
		t.Fatal(err)
	}
	s.Cores[0].OnExit = func(int64) { s.Queue.ExitSimLoop("exit") }
	s.StartCores(0)
	s.Queue.RunUntil(sim.MaxTick)
	if exited, _ := s.Cores[0].Exited(); !exited {
		t.Fatal("sort benchmark did not exit")
	}
	return s
}

// TestPMUElidesIdleWindows: on the Table 2 sort the PMU's inputs hold still
// through the core's sleeps, and the compiled netlist says so — at least 45%
// of its cycles are applied in closed form, with the tick, interrupt and
// dispatch counts and the final state of the machine ticking every cycle.
// Where every cycle must be seen (a waveform) or the evaluator has no closed
// form (the reference), nothing is elided.
func TestPMUElidesIdleWindows(t *testing.T) {
	t.Parallel()
	var hash [2]uint64
	var sys [2]*soc.System
	for i, oracle := range []bool{false, true} {
		sys[i] = runPMUSort(t, 200, 100, nil, soc.Oracles{PerCycle: oracle})
		h, err := sys[i].StateHash()
		if err != nil {
			t.Fatal(err)
		}
		hash[i] = h
	}
	nap, or := sys[0], sys[1]
	if a, b := nap.PMU.Stats(), or.PMU.Stats(); a != b {
		t.Errorf("PMU stats:\n sleeping  %+v\n per-cycle %+v", a, b)
	}
	if a, b := nap.Queue.Dispatched(), or.Queue.Dispatched(); a != b {
		t.Errorf("dispatched %d events, per-cycle %d", a, b)
	}
	if hash[0] != hash[1] {
		t.Errorf("state hash %016x, per-cycle %016x", hash[0], hash[1])
	}
	ticks, elided := nap.PMU.Stats().Ticks, nap.Queue.Elided()
	t.Logf("%d of %d PMU cycles applied in closed form (%.1f%%), %d interrupts",
		elided, ticks, 100*float64(elided)/float64(ticks), nap.PMU.Stats().Interrupts)
	if elided*100 < ticks*45 {
		t.Errorf("only %d of %d PMU cycles elided, under 45%%", elided, ticks)
	}
	if n := or.Queue.Elided(); n != 0 {
		t.Errorf("the per-cycle machine elided %d events", n)
	}

	wave := runPMUSort(t, 60, 20, func(c *soc.Config) {
		c.PMUWaveform, c.PMUWaveOut = true, io.Discard
	}, soc.Oracles{})
	if n := wave.Queue.Elided(); n != 0 {
		t.Errorf("with the waveform on, %d events elided", n)
	}
	ref := runPMUSort(t, 60, 20, nil, soc.Oracles{ReferencePMU: true})
	if n := ref.Queue.Elided(); n != 0 {
		t.Errorf("on the reference evaluator, %d events elided", n)
	}
}

// TestPMUTapsWakeItsSleep: the SoC's event taps drive the PMU behind its
// RTLObject's back. With the core idle, the programmed PMU sleeps on its
// cycle counter for good; commits and misses fed through the taps — on its
// edges and between them, from events ordered before and after its tick —
// must each land in the cycle the per-cycle machine counts it in.
func TestPMUTapsWakeItsSleep(t *testing.T) {
	t.Parallel()
	taps := []sim.Tick{20000, 20500, 21000, 33333, 50000, 50001, 70999, 90000, 90500}
	run := func(oracle bool) (*soc.System, []uint64) {
		cfg := soc.DefaultConfig()
		cfg.Cores = 1
		cfg.WithPMU = true
		s, err := soc.BuildWithOracles(cfg, soc.Oracles{PerCycle: oracle})
		if err != nil {
			t.Fatal(err)
		}
		host := experiments.NewAXIHost(s.Queue)
		port.Bind(host.Port(), s.PMU.CPUPort(0))
		s.PMU.Start()
		host.Write(pmu.RegEnable, 0x3F)
		for i, at := range taps {
			i := i
			// Before the PMU's tick in its tick, like a core's, or after it.
			prio := [2]int{sim.PriCPU, sim.PriDefault + 1}[i%2]
			s.Queue.Schedule(sim.NewEventPri("tap", prio, func() {
				if i%3 == 0 {
					s.L1Ds[0].OnMiss()
				} else {
					s.Cores[0].OnCommit(1 + i%5)
				}
			}), at)
		}
		// A tap counted a cycle late is counted all the same by the end: hash
		// the machine a few cycles after each one, and at the end.
		var hashes []uint64
		for _, at := range append(taps, 100*sim.Microsecond) {
			s.Queue.RunUntil(at + 2500)
			h, err := s.StateHash()
			if err != nil {
				t.Fatal(err)
			}
			hashes = append(hashes, h)
		}
		return s, hashes
	}
	nap, hNap := run(false)
	or, hOr := run(true)
	for i := 0; i <= pmu.EvCycle; i++ {
		if a, b := nap.PMUWrapper.Counter(i), or.PMUWrapper.Counter(i); a != b {
			t.Errorf("counter %d = %d, per-cycle %d", i, a, b)
		}
	}
	for i := range hNap {
		if hNap[i] != hOr[i] {
			t.Errorf("state hash %016x, per-cycle %016x, %d ps after the tap at %d", hNap[i], hOr[i], 2500, append(taps, 100*sim.Microsecond)[i])
		}
	}
	if nap.Queue.Elided() == 0 {
		t.Error("the idle PMU never slept")
	}
}
