// Package soc assembles the full simulated system-on-chip of Table 1: eight
// 2 GHz out-of-order cores with private L1I/L1D/L2, a shared 16 MiB LLC
// behind a coherent crossbar, a main memory (ideal, DDR4 x1/2/4, GDDR5 or
// HBM), and optional RTL devices — the PMU attached to core 0's commit and
// L1D-miss events (Figure 2b) and up to four NVDLA accelerators with direct
// memory-side connections (Figure 2c).
package soc

import (
	"context"
	"fmt"
	"io"

	"gem5rtl/internal/cache"
	"gem5rtl/internal/cpu"
	"gem5rtl/internal/guard"
	"gem5rtl/internal/isa"
	"gem5rtl/internal/mem"
	"gem5rtl/internal/noc"
	"gem5rtl/internal/nvdla"
	"gem5rtl/internal/obs"
	"gem5rtl/internal/pmu"
	"gem5rtl/internal/port"
	"gem5rtl/internal/rtl"
	"gem5rtl/internal/rtlobject"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/stats"
	"gem5rtl/internal/trace"
)

// Config selects the system to build.
type Config struct {
	// Cores is the number of CPU cores (Table 1: 8).
	Cores int
	// CoreFreqHz is the core clock (Table 1: 2 GHz).
	CoreFreqHz uint64
	// Memory names the main-memory technology: "ideal", "DDR4-1ch",
	// "DDR4-2ch", "DDR4-4ch", "GDDR5", or "HBM".
	Memory string
	// WithPMU attaches the PMU RTL model to core 0.
	WithPMU bool
	// PMUWaveform enables VCD tracing of the PMU model into PMUWaveOut.
	PMUWaveform bool
	PMUWaveOut  io.Writer
	// NVDLAs is the number of accelerator instances (0, 1, 2 or 4).
	NVDLAs int
	// NVDLAMaxInflight is the per-accelerator in-flight request cap
	// (the DSE sweep parameter; 0 = unlimited).
	NVDLAMaxInflight int
	// NVDLAScratchpad hooks each accelerator's SRAMIF to a private on-chip
	// scratchpad instead of main memory — the extension §4.2 of the paper
	// proposes. The paper's evaluated configuration leaves this false (both
	// interfaces to main memory).
	NVDLAScratchpad bool
}

// DefaultConfig returns the Table 1 system with DDR4-4ch memory.
func DefaultConfig() Config {
	return Config{Cores: 8, CoreFreqHz: 2_000_000_000, Memory: "DDR4-4ch"}
}

// System is a built SoC.
type System struct {
	Cfg   Config
	Queue *sim.EventQueue
	Clock *sim.ClockDomain
	Cores []*cpu.Core
	L1Is  []*cache.Cache
	L1Ds  []*cache.Cache
	L2s   []*cache.Cache
	// L2Muxes are the private 2:1 L1->L2 crossbars, one per core, kept so
	// checkpointing can reach their queued packets.
	L2Muxes []*noc.Xbar
	LLC     *cache.Cache
	// CPUXbar joins the L2s to the LLC; MemXbar joins the LLC and the
	// accelerators to the memory controller.
	CPUXbar *noc.Xbar
	MemXbar *noc.Xbar
	Store   *mem.Storage
	DRAM    *mem.DRAMCtrl    // nil when Memory == "ideal"
	Ideal   *mem.IdealMemory // nil otherwise

	PMU        *rtlobject.RTLObject
	PMUWrapper *pmu.Wrapper

	NVDLAs        []*rtlobject.RTLObject
	NVDLAWrappers []*nvdla.Wrapper
	Scratchpads   []*mem.Scratchpad // per-NVDLA, when NVDLAScratchpad is set

	// Watchdog is the liveness monitor installed by AttachWatchdog (nil
	// otherwise). Its Err is surfaced by RunNVDLAPhase.
	Watchdog *guard.Watchdog

	// Tracer is the debug-flag trace sink installed by AttachTracer (nil
	// otherwise); Latency the packet-lifetime profile installed by
	// AttachLatencyProfile (nil otherwise).
	Tracer  *obs.Tracer
	Latency *obs.LatencyProfile

	Stats *stats.Registry

	// ShardQueues is always []*sim.EventQueue{Queue}. It exists for its one
	// reader, the prof.FromQueues call in bench/stage.go; everything else
	// uses Queue.
	ShardQueues []*sim.EventQueue
	// doneWindow is the length of the completion window (see windowEnd): the
	// memory crossbar's latency.
	doneWindow sim.Tick
	// ports is the system's protocol-checking choice (Oracles.Ports).
	ports port.Checking
}

// Bind connects a request port to a response port of the system — its own
// links, or an outside agent such as the host that programs the PMU — with
// or without a protocol checker, as the system was built to choose.
func (s *System) Bind(req *port.RequestPort, resp *port.ResponsePort) { s.ports.Bind(req, resp) }

// Table 1 cache latencies at 2 GHz (2/9/20 cycles).
const (
	l1Latency  = 1 * sim.Nanosecond
	l2Latency  = 4500 * sim.Picosecond
	llcLatency = 10 * sim.Nanosecond
)

// memXbarMaxOutstanding is the memory-side crossbar's outstanding-request
// cap: headroom beyond the largest per-device cap, so the crossbar does not
// clip the DSE's 240-in-flight sweep point.
const memXbarMaxOutstanding = 512

// Oracles names the test oracles a system can be built on in place of its
// production parts: slower, simpler implementations the differential tests
// hold the production machine to, byte for byte. The zero value is the
// production machine.
type Oracles struct {
	// ReferenceQueue runs the system on the pure-heap event queue
	// (sim.NewReferenceEventQueue) instead of the calendar queue.
	ReferenceQueue bool
	// ReferencePMU runs the PMU on the tree-walking reference evaluator
	// instead of the bytecode VM.
	ReferencePMU bool
	// PerCycle ticks every RTL object on every model edge, applying no
	// cycle in closed form (rtlobject.Config.PerCycle).
	PerCycle bool
	// Ports chooses the protocol checkers on the system's links (System.Bind).
	// The zero value follows port.CheckPortsEnv; -check-ports sets that.
	Ports port.Checking
}

// Build wires a system from the configuration.
func Build(cfg Config) (*System, error) { return BuildWithOracles(cfg, Oracles{}) }

// BuildWithOracles is Build with the named test oracles in place of the
// production parts. It is the one way to build an oracle machine, and only
// tests take it.
func BuildWithOracles(cfg Config, o Oracles) (*System, error) {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.CoreFreqHz == 0 {
		cfg.CoreFreqHz = 2_000_000_000
	}
	s := &System{Cfg: cfg, Queue: sim.NewEventQueue(), Stats: stats.NewRegistry(), ports: o.Ports}
	if o.ReferenceQueue {
		s.Queue = sim.NewReferenceEventQueue()
	}
	s.Clock = sim.NewClockDomain("cpu_clk", s.Queue, cfg.CoreFreqHz)
	s.Store = mem.NewStorage()
	s.ShardQueues = []*sim.EventQueue{s.Queue}

	// Main memory.
	var memPort *port.ResponsePort
	switch cfg.Memory {
	case "", "ideal":
		s.Ideal = mem.NewIdealMemory("ideal_mem", s.Queue, s.Store, s.Clock.Period())
		memPort = s.Ideal.Port()
	default:
		dcfg, ok := mem.ConfigByName(cfg.Memory)
		if !ok {
			return nil, fmt.Errorf("soc: unknown memory technology %q", cfg.Memory)
		}
		s.DRAM = mem.NewDRAMCtrl(dcfg, s.Queue, s.Store)
		memPort = s.DRAM.Port()
	}

	// Crossbars (Table 1: coherent crossbar, 128-bit wide, 2 cycles).
	xcfg := noc.Config{
		Latency:        s.Clock.Cycles(2),
		WidthBytes:     16,
		ClockTick:      s.Clock.Period(),
		MaxOutstanding: 64,
	}
	cx := xcfg
	cx.Name = "cpu_xbar"
	s.CPUXbar = noc.New(cx, s.Queue, cfg.Cores, 1)
	mx := xcfg
	mx.Name = "mem_xbar"
	mx.MaxOutstanding = memXbarMaxOutstanding
	s.MemXbar = noc.New(mx, s.Queue, 1+2*cfg.NVDLAs, 1)
	s.doneWindow = mx.Latency

	// Shared LLC (16 MiB, 16-way, 8 banks x 32 MSHRs, 20-cycle data).
	s.LLC = cache.New(cache.Config{
		Name: "llc", SizeBytes: 16 << 20, Assoc: 16,
		Latency: llcLatency, MSHRs: 8 * 32,
	}, s.Queue)
	s.Bind(s.CPUXbar.DownPort(0), s.LLC.CPUPort())
	s.Bind(s.LLC.MemPort(), s.MemXbar.FrontPort(0))
	s.Bind(s.MemXbar.DownPort(0), memPort)

	// Cores and private hierarchies.
	for i := 0; i < cfg.Cores; i++ {
		core := cpu.New(cpu.DefaultConfig(i), s.Clock, s.Store)
		l1i := cache.New(cache.Config{
			Name: fmt.Sprintf("cpu%d.l1i", i), SizeBytes: 64 << 10, Assoc: 4,
			Latency: l1Latency, MSHRs: 8, StridePrefetch: true,
		}, s.Queue)
		l1d := cache.New(cache.Config{
			Name: fmt.Sprintf("cpu%d.l1d", i), SizeBytes: 64 << 10, Assoc: 4,
			Latency: l1Latency, MSHRs: 24,
		}, s.Queue)
		l2 := cache.New(cache.Config{
			Name: fmt.Sprintf("cpu%d.l2", i), SizeBytes: 256 << 10, Assoc: 8,
			Latency: l2Latency, MSHRs: 24, StridePrefetch: true,
		}, s.Queue)
		// L1I/L1D share the L2 through a private 2:1 mux crossbar.
		mux := noc.New(noc.Config{
			Name: fmt.Sprintf("cpu%d.l2mux", i), Latency: 0, MaxOutstanding: 64,
		}, s.Queue, 2, 1)
		s.Bind(core.IPort(), l1i.CPUPort())
		s.Bind(core.DPort(), l1d.CPUPort())
		s.Bind(l1i.MemPort(), mux.FrontPort(0))
		s.Bind(l1d.MemPort(), mux.FrontPort(1))
		s.Bind(mux.DownPort(0), l2.CPUPort())
		s.Bind(l2.MemPort(), s.CPUXbar.FrontPort(i))
		s.Cores = append(s.Cores, core)
		s.L1Is = append(s.L1Is, l1i)
		s.L1Ds = append(s.L1Ds, l1d)
		s.L2s = append(s.L2s, l2)
		s.L2Muxes = append(s.L2Muxes, mux)
	}

	// PMU (Figure 2b): events from core 0's commit tap and L1D misses,
	// clocked at 1 GHz (divider 2 from the 2 GHz cores).
	if cfg.WithPMU {
		engine := rtl.EngineBytecode
		if o.ReferencePMU {
			engine = rtl.EngineReference
		}
		w, err := pmu.NewWrapperEngine(pmu.NumCounters, engine)
		if err != nil {
			return nil, err
		}
		s.PMUWrapper = w
		if cfg.PMUWaveform {
			if cfg.PMUWaveOut == nil {
				return nil, fmt.Errorf("soc: PMUWaveform requires PMUWaveOut")
			}
			w.Model().AttachVCD(cfg.PMUWaveOut, 1)
		}
		obj := rtlobject.New(rtlobject.Config{
			Name: "pmu", ClockDivider: 2, PerCycle: o.PerCycle,
		}, s.Clock, w)
		s.PMU = obj
		// RTL devices mint packet IDs from per-device namespaces so a
		// device's ID stream depends only on its own allocations (space 0 is
		// the queue's counter, which the cores and caches share).
		obj.SetPacketIDSpace(1)
		// The event taps drive the model's event lines beside the object's
		// Input. A PMU asleep on its quiet cycles stays asleep: its horizon
		// holds whatever the lines do, and the wrapper folds each event into
		// the edge the per-cycle machine would first drive it on.
		s.Cores[0].OnCommit = func(n int) {
			if n > 0 {
				w.AddCommits(n, obj.Owed())
			}
		}
		s.L1Ds[0].OnMiss = func() { w.AddMiss(obj.Owed()) }
	}

	// NVDLAs (Figure 2c): CSB on a CPU-side port, DBBIF/SRAMIF on the
	// memory-side crossbar, 1 GHz, in-flight cap from the DSE parameter.
	for i := 0; i < cfg.NVDLAs; i++ {
		w := nvdla.New(nvdla.DefaultConfig(fmt.Sprintf("nvdla%d", i)))
		obj := rtlobject.New(rtlobject.Config{
			Name:         fmt.Sprintf("nvdla%d", i),
			ClockDivider: 2,
			MaxInflight:  cfg.NVDLAMaxInflight,
			TLB:          rtlobject.IdentityTLB{}, // paper bypasses the IOMMU
			PerCycle:     o.PerCycle,
		}, s.Clock, w)
		obj.SetPacketIDSpace(uint64(2 + i))
		s.Bind(obj.MemPort(nvdla.PortDBBIF), s.MemXbar.FrontPort(1+2*i))
		if cfg.NVDLAScratchpad {
			spm := mem.NewScratchpad(mem.DefaultScratchpadConfig(
				fmt.Sprintf("nvdla%d.spm", i)), s.Queue, s.Store)
			s.Bind(obj.MemPort(nvdla.PortSRAMIF), spm.Port())
			s.Scratchpads = append(s.Scratchpads, spm)
		} else {
			s.Bind(obj.MemPort(nvdla.PortSRAMIF), s.MemXbar.FrontPort(2+2*i))
		}
		s.NVDLAs = append(s.NVDLAs, obj)
		s.NVDLAWrappers = append(s.NVDLAWrappers, w)
	}

	s.registerStats()
	return s, nil
}

// MustBuild panics on configuration errors.
func MustBuild(cfg Config) *System {
	s, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *System) registerStats() {
	reg := s.Stats
	for i, c := range s.Cores {
		p := fmt.Sprintf("system.cpu%d.", i)
		reg.Register(p+"numCycles", "core cycles", func() float64 { return float64(c.Stats().Cycles) })
		reg.Register(p+"committedInsts", "committed instructions", func() float64 { return float64(c.Stats().Committed) })
		reg.RegisterRatio(p+"ipc", "instructions per active cycle", func() (float64, float64) {
			st := c.Stats()
			return float64(st.Committed), float64(st.Cycles)
		})
	}
	for i, d := range s.L1Ds {
		p := fmt.Sprintf("system.cpu%d.dcache.", i)
		reg.Register(p+"misses", "L1D demand misses", func() float64 { return float64(d.Stats().Misses) })
		reg.Register(p+"hits", "L1D hits", func() float64 { return float64(d.Stats().Hits) })
	}
	llc := s.LLC
	reg.Register("system.llc.misses", "LLC misses", func() float64 { return float64(llc.Stats().Misses) })
	if d := s.DRAM; d != nil {
		reg.Register("system.mem.bytesRead", "DRAM bytes read", func() float64 { return float64(d.Stats().BytesRead) })
		reg.RegisterRatio("system.mem.rowHitRate", "DRAM row-buffer hit rate", func() (float64, float64) {
			st := d.Stats()
			return float64(st.RowHits), float64(st.RowHits + st.RowMisses)
		})
		reg.RegisterRatio("system.mem.avgReadLatency", "DRAM mean read latency (ticks)", func() (float64, float64) {
			st := d.Stats()
			return float64(st.TotalRdLat), float64(st.RetiredRds)
		})
	}
	for i, o := range s.NVDLAs {
		p := fmt.Sprintf("system.nvdla%d.", i)
		reg.Register(p+"memReads", "accelerator memory reads", func() float64 { return float64(o.Stats().MemReads) })
		reg.RegisterRatio(p+"avgMemLatency", "accelerator mean memory latency (ticks)", func() (float64, float64) {
			st := o.Stats()
			return float64(st.TotalMemLat), float64(st.RetiredMem)
		})
	}
}

// LoadProgram assembles and loads a guest program into core i.
func (s *System) LoadProgram(core int, asmSrc string) error {
	img, err := isa.Assemble(asmSrc)
	if err != nil {
		return err
	}
	s.Cores[core].LoadProgram(img)
	return nil
}

// PreloadMem writes data directly into backing store (trace/image loading).
func (s *System) PreloadMem(addr uint64, data []byte) {
	s.Store.Write(addr, data)
}

// StartCores begins execution on every core that has a program loaded.
func (s *System) StartCores(cores ...int) {
	if len(cores) == 0 {
		for _, c := range s.Cores {
			c.Start()
		}
		return
	}
	for _, i := range cores {
		s.Cores[i].Start()
	}
}

// PlayTrace applies an NVDLA trace to accelerator instance idx: memory
// preloads go straight to backing store (the paper's host application phase
// that loads the trace into main memory) and register writes are applied via
// the accelerator's CSB. The final WaitIRQ is the caller's job (run the
// event queue until the accelerator interrupt).
func (s *System) PlayTrace(idx int, t *trace.Trace) {
	// The register writes below bypass the RTLObject; an accelerator that is
	// asleep (idle since its last trace) must be ticking again to see them.
	s.NVDLAs[idx].Wake()
	w := s.NVDLAWrappers[idx]
	for _, op := range t.Ops {
		switch op.Kind {
		case trace.OpLoadMem:
			s.PreloadMem(op.Addr, op.Data)
		case trace.OpWriteReg:
			w.WriteReg(op.Addr, op.Val)
		case trace.OpStart:
			w.WriteReg(nvdla.RegCtrl, 1)
		case trace.OpWaitIRQ:
			// handled by the caller via OnInterrupt / Done polling
		}
	}
}

// RunUntilNVDLAsDone starts the accelerators and simulates until every
// instance raises its completion interrupt (or the limit passes). It
// returns the completion time.
func (s *System) RunUntilNVDLAsDone(limit sim.Tick) (sim.Tick, error) {
	return s.RunUntilNVDLAsDoneCtx(context.Background(), limit)
}

// RunUntilNVDLAsDoneCtx is RunUntilNVDLAsDone with host-side cancellation:
// a periodic poll of the run loop (see sim.WatchContext) ends the simulation
// and returns ctx.Err() once ctx is cancelled or its deadline passes. The
// watcher only observes the context, so an uncancelled run is the same
// machine, checkpoint bytes included, as RunUntilNVDLAsDone's.
func (s *System) RunUntilNVDLAsDoneCtx(ctx context.Context, limit sim.Tick) (sim.Tick, error) {
	done, remaining, err := s.RunNVDLAPhase(ctx, limit)
	if err != nil {
		return 0, err
	}
	if remaining > 0 {
		return 0, fmt.Errorf("soc: %d accelerators still running at tick %d", remaining, s.Queue.Now())
	}
	return done, nil
}

// RunNVDLAPhase simulates until every accelerator has raised its completion
// interrupt or the simulated-time limit passes, whichever comes first, and
// returns the reached tick plus how many accelerators are still running.
// Unlike RunUntilNVDLAsDoneCtx, hitting the limit is not an error — this is
// the split primitive checkpointing runs on: a prefix run to a checkpoint
// tick and the resumed remainder chain through RunNVDLAPhase and dispatch
// exactly the events an uninterrupted run would, so restored statistics and
// event counts stay bit-identical. Accelerators that finish before the limit
// behave the same in both halves: the phase ends early, reporting the true
// completion tick with remaining == 0 and leaving the queue on the last tick
// of that tick's completion window (see windowEnd).
//
// The queue's RunUntil settles every sleeping RTLObject before it returns:
// the cycles applied in closed form are all applied, so the wrappers' own
// Stats and Done, the queue's Dispatched and an attached profiler read what
// the per-cycle machine would show, with no call the reader must remember.
func (s *System) RunNVDLAPhase(ctx context.Context, limit sim.Tick) (sim.Tick, int, error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	remaining := 0
	for _, w := range s.NVDLAWrappers {
		if !w.Done() {
			remaining++
		}
	}
	if remaining == 0 {
		return s.Queue.Now(), 0, nil
	}
	// The last completion interrupt at tick T arms a stop at the end of T's
	// completion window rather than exiting on the spot. The reached tick
	// reported is still T, the true completion time.
	var doneAt sim.Tick
	for _, o := range s.NVDLAs {
		o.OnInterrupt(func(level bool) {
			if level {
				remaining--
				if remaining == 0 {
					doneAt = s.Queue.Now()
					s.Queue.SetStopAfter(windowEnd(doneAt, s.doneWindow))
				}
			}
		})
	}
	stop := s.Queue.WatchContext(ctx, 0)
	defer stop()
	s.Queue.RunUntil(limit)
	s.Queue.ClearStopAfter()
	if err := ctx.Err(); err != nil {
		return 0, remaining, err
	}
	if s.Watchdog != nil {
		if err := s.Watchdog.Err(); err != nil {
			return s.Queue.Now(), remaining, err
		}
	}
	if remaining > 0 {
		return s.Queue.Now(), remaining, nil
	}
	return doneAt, 0, nil
}

// windowEnd returns the last tick of the window-aligned span containing t
// (spans are [k*window, (k+1)*window)). A run that detects completion at t
// keeps dispatching to this tick because the state the goldens hash is the
// state there: stopping at t itself fails TestKernelGoldenStateHash and
// TestReferenceQueueMatchesGolden. The completion tick a run reports does not
// depend on the window.
func windowEnd(t, window sim.Tick) sim.Tick {
	return (t/window+1)*window - 1
}
