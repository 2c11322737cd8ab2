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
	"gem5rtl/internal/psim"
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
	// RTLEngine selects the simulation engine for RTL models ("closure" or
	// "bytecode"; see rtl.Engines). Empty means the production default,
	// the optimizing bytecode engine. Engine choice never changes
	// simulation results, only execution speed.
	RTLEngine rtl.Engine
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
	// Shards splits the simulation across parallel event queues (DESIGN.md
	// §9): shard 0 owns the memory side (cores, caches, crossbars, DRAM,
	// PMU) and each further shard owns one or more NVDLA clusters, advancing
	// in bulk-synchronous epochs bounded by the memory crossbar's latency.
	// 0 or 1 selects the serial engine. Results are shard-count-independent:
	// statistics, state hashes and checkpoints are bit-identical to a serial
	// run. Shard counts above 1+NVDLAs are clamped (an extra shard with
	// nothing on it buys nothing).
	Shards int
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

	// ShardQueues lists every shard's event queue; ShardQueues[0] == Queue,
	// and a serial build has length 1. Engine is the bulk-synchronous engine
	// driving a sharded build (nil when serial).
	ShardQueues []*sim.EventQueue
	Engine      *psim.Engine
	// nvdlaShard[i] is the shard owning accelerator i (0 when serial).
	nvdlaShard []int
	// epochLen is the conservative lookahead — the memory crossbar's
	// latency, the minimum simulated delay of any cross-shard interaction.
	// Serial completion is epoch-aligned against it too, so serial and
	// sharded runs end in identical states.
	epochLen sim.Tick
}

// Table 1 cache latencies at 2 GHz (2/9/20 cycles).
const (
	l1Latency  = 1 * sim.Nanosecond
	l2Latency  = 4500 * sim.Picosecond
	llcLatency = 10 * sim.Nanosecond
)

// memXbarMaxOutstanding is the memory-side crossbar's outstanding-request
// cap. It must not clip the DSE's 240-in-flight sweep point, and it bounds
// the NVDLAMaxInflight a sharded build accepts: a shard-boundary lane must
// never be refused (DESIGN.md §9), which holds as long as each device's cap
// keeps its lanes under this limit.
const memXbarMaxOutstanding = 512

// Build wires a system from the configuration.
func Build(cfg Config) (*System, error) {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.CoreFreqHz == 0 {
		cfg.CoreFreqHz = 2_000_000_000
	}
	// Production default is the optimizing bytecode engine; results are
	// engine-independent so the choice is pure execution strategy.
	if cfg.RTLEngine == "" {
		cfg.RTLEngine = rtl.EngineBytecode
	} else if _, err := rtl.ParseEngine(string(cfg.RTLEngine)); err != nil {
		return nil, fmt.Errorf("soc: %w", err)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("soc: negative shard count %d", cfg.Shards)
	}
	if cfg.Shards > 1 {
		// The sharded engine's no-refusal invariant: a request crossing a
		// shard boundary must always be accepted, because the retry handshake
		// cannot span shards within an epoch. Each accelerator's in-flight cap
		// must therefore be finite and within the crossbar's outstanding
		// budget, and every shardable device must sit on the crossbar (a
		// scratchpad-backed SRAMIF would need its own partition rules).
		switch {
		case cfg.NVDLAs == 0:
			return nil, fmt.Errorf("soc: Shards=%d needs NVDLA accelerators to place on the extra shards", cfg.Shards)
		case cfg.NVDLAScratchpad:
			return nil, fmt.Errorf("soc: sharded simulation does not support NVDLAScratchpad")
		case cfg.NVDLAMaxInflight <= 0:
			return nil, fmt.Errorf("soc: sharded simulation requires a finite NVDLAMaxInflight")
		case cfg.NVDLAMaxInflight > memXbarMaxOutstanding:
			return nil, fmt.Errorf("soc: NVDLAMaxInflight %d exceeds the memory crossbar budget %d; a sharded run could see shard-boundary back-pressure",
				cfg.NVDLAMaxInflight, memXbarMaxOutstanding)
		}
		if cfg.Shards > 1+cfg.NVDLAs {
			cfg.Shards = 1 + cfg.NVDLAs
		}
	}
	s := &System{Cfg: cfg, Queue: sim.NewEventQueue(), Stats: stats.NewRegistry()}
	s.Clock = sim.NewClockDomain("cpu_clk", s.Queue, cfg.CoreFreqHz)
	s.Store = mem.NewStorage()
	s.ShardQueues = []*sim.EventQueue{s.Queue}
	shardClks := []*sim.ClockDomain{s.Clock}
	for k := 1; k < cfg.Shards; k++ {
		q := sim.NewEventQueue()
		s.ShardQueues = append(s.ShardQueues, q)
		shardClks = append(shardClks, sim.NewClockDomain(fmt.Sprintf("shard%d_clk", k), q, cfg.CoreFreqHz))
	}

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
	// The memory-side crossbar must not clip the DSE's 240-in-flight sweep
	// point: give it headroom beyond the largest per-device cap.
	mx.MaxOutstanding = memXbarMaxOutstanding
	s.MemXbar = noc.New(mx, s.Queue, 1+2*cfg.NVDLAs, 1)
	// The crossbar's latency is the minimum simulated delay of any
	// cross-shard interaction — the sharded engine's conservative lookahead
	// and the epoch length serial completion aligns to.
	s.epochLen = mx.Latency
	if len(s.ShardQueues) > 1 {
		s.Engine = psim.New(s.ShardQueues, s.epochLen)
	}

	// Shared LLC (16 MiB, 16-way, 8 banks x 32 MSHRs, 20-cycle data).
	s.LLC = cache.New(cache.Config{
		Name: "llc", SizeBytes: 16 << 20, Assoc: 16,
		Latency: llcLatency, MSHRs: 8 * 32,
	}, s.Queue)
	port.Bind(s.CPUXbar.DownPort(0), s.LLC.CPUPort())
	port.Bind(s.LLC.MemPort(), s.MemXbar.FrontPort(0))
	port.Bind(s.MemXbar.DownPort(0), memPort)

	// Cores and private hierarchies.
	for i := 0; i < cfg.Cores; i++ {
		core := cpu.New(cpu.DefaultConfig(i), s.Clock)
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
		port.Bind(core.IPort(), l1i.CPUPort())
		port.Bind(core.DPort(), l1d.CPUPort())
		port.Bind(l1i.MemPort(), mux.FrontPort(0))
		port.Bind(l1d.MemPort(), mux.FrontPort(1))
		port.Bind(mux.DownPort(0), l2.CPUPort())
		port.Bind(l2.MemPort(), s.CPUXbar.FrontPort(i))
		s.Cores = append(s.Cores, core)
		s.L1Is = append(s.L1Is, l1i)
		s.L1Ds = append(s.L1Ds, l1d)
		s.L2s = append(s.L2s, l2)
		s.L2Muxes = append(s.L2Muxes, mux)
	}

	// PMU (Figure 2b): events from core 0's commit tap and L1D misses,
	// clocked at 1 GHz (divider 2 from the 2 GHz cores).
	if cfg.WithPMU {
		w, err := pmu.NewWrapperEngine(pmu.NumCounters, cfg.RTLEngine)
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
		s.PMU = rtlobject.New(rtlobject.Config{
			Name: "pmu", ClockDivider: 2,
		}, s.Clock, w)
		// RTL devices mint packet IDs from per-device namespaces so ID
		// streams stay identical whether a device shares the global counter's
		// shard or runs on its own (space 0 is the global pool).
		s.PMU.SetPacketIDSpace(1)
		s.Cores[0].OnCommit = w.AddCommits
		s.L1Ds[0].OnMiss = w.AddMiss
	}

	// NVDLAs (Figure 2c): CSB on a CPU-side port, DBBIF/SRAMIF on the
	// memory-side crossbar, 1 GHz, in-flight cap from the DSE parameter.
	// Sharded builds place accelerator i on shard 1+(i mod (Shards-1)),
	// round-robin, and route its crossbar lanes through the engine's
	// barrier-exchanged links.
	for i := 0; i < cfg.NVDLAs; i++ {
		shard := 0
		if s.Engine != nil {
			shard = 1 + i%(len(s.ShardQueues)-1)
		}
		w := nvdla.New(nvdla.DefaultConfig(fmt.Sprintf("nvdla%d", i)))
		obj := rtlobject.New(rtlobject.Config{
			Name:         fmt.Sprintf("nvdla%d", i),
			ClockDivider: 2,
			MaxInflight:  cfg.NVDLAMaxInflight,
			TLB:          rtlobject.IdentityTLB{}, // paper bypasses the IOMMU
		}, shardClks[shard], w)
		obj.SetPacketIDSpace(uint64(2 + i))
		if shard != 0 {
			k := shard
			for _, lane := range []int{1 + 2*i, 2 + 2*i} {
				s.MemXbar.SetFrontShard(lane, s.ShardQueues[k],
					func(m noc.IngressMsg) {
						s.Engine.Send(k, 0, func() { s.MemXbar.ApplyIngress(m) })
					},
					func(m noc.EgressMsg) {
						s.Engine.Send(0, k, func() { s.MemXbar.ApplyEgress(m) })
					})
			}
		}
		port.Bind(obj.MemPort(nvdla.PortDBBIF), s.MemXbar.FrontPort(1+2*i))
		if cfg.NVDLAScratchpad {
			spm := mem.NewScratchpad(mem.DefaultScratchpadConfig(
				fmt.Sprintf("nvdla%d.spm", i)), s.Queue, s.Store)
			port.Bind(obj.MemPort(nvdla.PortSRAMIF), spm.Port())
			s.Scratchpads = append(s.Scratchpads, spm)
		} else {
			port.Bind(obj.MemPort(nvdla.PortSRAMIF), s.MemXbar.FrontPort(2+2*i))
		}
		s.NVDLAs = append(s.NVDLAs, obj)
		s.NVDLAWrappers = append(s.NVDLAWrappers, w)
		s.nvdlaShard = append(s.nvdlaShard, shard)
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
	for i, c := range s.Cores {
		c := c
		p := fmt.Sprintf("system.cpu%d.", i)
		s.Stats.Register(p+"numCycles", "core cycles", func() float64 {
			st := c.Stats()
			return float64(st.Cycles)
		})
		s.Stats.Register(p+"committedInsts", "committed instructions", func() float64 {
			st := c.Stats()
			return float64(st.Committed)
		})
		s.Stats.Register(p+"ipc", "instructions per active cycle", func() float64 {
			st := c.Stats()
			return st.IPC()
		})
	}
	for i, d := range s.L1Ds {
		d := d
		p := fmt.Sprintf("system.cpu%d.dcache.", i)
		s.Stats.Register(p+"misses", "L1D demand misses", func() float64 {
			st := d.Stats()
			return float64(st.Misses)
		})
		s.Stats.Register(p+"hits", "L1D hits", func() float64 {
			st := d.Stats()
			return float64(st.Hits)
		})
	}
	llc := s.LLC
	s.Stats.Register("system.llc.misses", "LLC misses", func() float64 {
		st := llc.Stats()
		return float64(st.Misses)
	})
	if s.DRAM != nil {
		d := s.DRAM
		s.Stats.Register("system.mem.bytesRead", "DRAM bytes read", func() float64 {
			st := d.Stats()
			return float64(st.BytesRead)
		})
		s.Stats.Register("system.mem.rowHitRate", "DRAM row-buffer hit rate", func() float64 {
			st := d.Stats()
			return st.RowHitRate()
		})
		s.Stats.Register("system.mem.avgReadLatency", "DRAM mean read latency (ticks)", func() float64 {
			st := d.Stats()
			return st.AvgReadLatency()
		})
	}
	for i, o := range s.NVDLAs {
		o := o
		p := fmt.Sprintf("system.nvdla%d.", i)
		s.Stats.Register(p+"memReads", "accelerator memory reads", func() float64 {
			return float64(o.Stats().MemReads)
		})
		s.Stats.Register(p+"avgMemLatency", "accelerator mean memory latency (ticks)", func() float64 {
			st := o.Stats()
			return st.AvgMemLatency()
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
// a periodic check event (see sim.WatchContext) ends the simulation loop
// and returns ctx.Err() once ctx is cancelled or its deadline passes. The
// watcher only observes the context, so an uncancelled run completes at
// tick-identical times to RunUntilNVDLAsDone.
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
// behave the same in both halves: the phase ends early at the true
// completion tick with remaining == 0.
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
	if s.Engine != nil {
		return s.runNVDLAPhaseSharded(ctx, limit)
	}
	// The last completion interrupt at tick T arms a stop at the end of T's
	// epoch rather than exiting on the spot: a sharded run can only observe
	// completion at epoch barriers, so the serial engine runs out the same
	// epoch to end in the identical state. The reached tick reported is
	// still T, the true completion time.
	var doneAt sim.Tick
	for _, o := range s.NVDLAs {
		o.OnInterrupt(func(level bool) {
			if level {
				remaining--
				if remaining == 0 {
					doneAt = s.Queue.Now()
					s.Queue.SetStopAfter(psim.EpochEnd(doneAt, s.epochLen))
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

// runNVDLAPhaseSharded drives the bulk-synchronous engine. Completion is
// tracked per shard — each counter and last-interrupt tick is written only
// by its shard's goroutine during the run phase and read by the coordinator
// at epoch barriers, which order the accesses — so global completion is
// observed without locks, at the barrier ending the epoch of the last
// interrupt: exactly the tick the serial engine's epoch-aligned stop
// reaches.
func (s *System) runNVDLAPhaseSharded(ctx context.Context, limit sim.Tick) (sim.Tick, int, error) {
	remainingSh := make([]int, len(s.ShardQueues))
	lastIRQ := make([]sim.Tick, len(s.ShardQueues))
	for i, w := range s.NVDLAWrappers {
		if !w.Done() {
			remainingSh[s.nvdlaShard[i]]++
		}
	}
	for i, o := range s.NVDLAs {
		k := s.nvdlaShard[i]
		qk := s.ShardQueues[k]
		o.OnInterrupt(func(level bool) {
			if level {
				remainingSh[k]--
				lastIRQ[k] = qk.Now()
			}
		})
	}
	stop := s.Queue.WatchContext(ctx, 0)
	defer stop()
	var doneAt sim.Tick
	s.Engine.RunEpochs(limit, func(now sim.Tick) bool {
		if s.Watchdog != nil && s.Watchdog.CheckHosted(now) {
			return true
		}
		total := 0
		for _, r := range remainingSh {
			total += r
		}
		if total > 0 {
			return false
		}
		for _, t := range lastIRQ {
			if t > doneAt {
				doneAt = t
			}
		}
		return true
	})
	total := 0
	for _, r := range remainingSh {
		total += r
	}
	if err := ctx.Err(); err != nil {
		return 0, total, err
	}
	if s.Watchdog != nil {
		if err := s.Watchdog.Err(); err != nil {
			return s.Queue.Now(), total, err
		}
	}
	if total > 0 {
		return s.Queue.Now(), total, nil
	}
	return doneAt, 0, nil
}

// Dispatched returns the dispatched-event total across all shard queues —
// the number a serial run's single queue reports, regardless of shard
// count.
func (s *System) Dispatched() uint64 {
	var n uint64
	for _, q := range s.ShardQueues {
		n += q.Dispatched()
	}
	return n
}

// FarScheduled returns, summed over all shard queues, how many events were
// scheduled into a spill heap instead of a calendar ring (see
// sim.EventQueue.FarScheduled) — host-side cost accounting, not simulated
// state: a restored run counts only what it scheduled itself.
func (s *System) FarScheduled() uint64 {
	var n uint64
	for _, q := range s.ShardQueues {
		n += q.FarScheduled()
	}
	return n
}
