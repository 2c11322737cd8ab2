// Package experiments implements the paper's evaluation (§5-§6): the PMU
// functional validation (Figure 5), the PMU simulation-time overhead study
// (Table 2), the NVDLA memory design-space exploration (Figures 6 and 7),
// and the NVDLA simulation-time overhead study (Table 3). The cmd/ binaries
// and the top-level benchmarks are thin wrappers around this package, so a
// figure is regenerated identically from either entry point.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"gem5rtl/internal/pmu"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/workload"
)

// AXIHost is the host-side master used to program and read the PMU over its
// CPU-side port, standing in for core 0's MMIO path.
type AXIHost struct {
	q     *sim.EventQueue
	p     *port.RequestPort
	pool  port.PacketPool
	reads map[uint64]chan uint32 // packet ID -> result
}

// NewAXIHost creates a host master on q's system, minting its packet IDs
// from the system's counter; bind its Port to the PMU's CPU port.
func NewAXIHost(q *sim.EventQueue) *AXIHost {
	h := &AXIHost{q: q, reads: map[uint64]chan uint32{}}
	h.p = port.NewRequestPort("axihost", h)
	h.pool.ShareIDs(q)
	return h
}

// Port returns the host's request port for binding.
func (h *AXIHost) Port() *port.RequestPort { return h.p }

// RecvTimingResp implements port.Requestor.
func (h *AXIHost) RecvTimingResp(pkt *port.Packet) bool {
	if ch, ok := h.reads[pkt.ID]; ok {
		delete(h.reads, pkt.ID)
		var v uint32
		for i := 0; i < len(pkt.Data) && i < 4; i++ {
			v |= uint32(pkt.Data[i]) << (8 * i)
		}
		ch <- v
	}
	return true
}

// RecvReqRetry implements port.Requestor.
func (h *AXIHost) RecvReqRetry() {}

// Write posts a register write (fire and forget; the response is dropped).
func (h *AXIHost) Write(addr uint64, val uint32) {
	pkt := h.pool.NewWrite(addr, []byte{
		byte(val), byte(val >> 8), byte(val >> 16), byte(val >> 24)})
	if !h.p.SendTimingReq(pkt) {
		panic("experiments: PMU refused AXI write")
	}
}

// Read issues a register read and runs the simulation until it completes.
func (h *AXIHost) Read(addr uint64) uint32 {
	pkt := h.pool.GetRead(addr, 4)
	ch := make(chan uint32, 1)
	h.reads[pkt.ID] = ch
	if !h.p.SendTimingReq(pkt) {
		panic("experiments: PMU refused AXI read")
	}
	for {
		select {
		case v := <-ch:
			return v
		default:
		}
		if !h.q.Step() {
			panic("experiments: simulation drained before AXI read completed")
		}
	}
}

// Fig5Sample is one PMU interrupt interval: the PMU-measured and
// gem5-measured IPC and MPKI over the window ending at TimeMs.
type Fig5Sample struct {
	TimeMs   float64
	PMUIPC   float64
	Gem5IPC  float64
	PMUMPKI  float64
	Gem5MPKI float64
}

// sortRun configures the Table 2 sort system that Figure 5, Table 2 and the
// PMU fault campaign all run: one core running the sort benchmark, with or
// without the PMU RTL model on core 0.
type sortRun struct {
	workload.SortParams
	// PMU attaches the PMU, programmed to interrupt every Interval PMU cycles.
	PMU      bool
	Interval int
	// Waveform traces the PMU model's VCD into WaveOut.
	Waveform bool
	WaveOut  io.Writer
}

// sortSystem is a sortRun built and brought up.
type sortSystem struct {
	*soc.System
	// host programs and reads the PMU over AXI; nil without the PMU.
	host *AXIHost
	// start is when the bring-up began: a run's host time is measured from
	// here, so it leaves out the build.
	start time.Time
	// exited reports that core 0 ran the benchmark to its exit.
	exited bool
}

// runSort builds the sort system sp describes and runs it through the
// runner's lifecycle (handRun): the options attach, the system comes up, and
// drive runs it. Bring-up is the same for every caller: the PMU started and
// programmed over AXI — commit lines 0-3, the L1D miss line and the cycle
// line enabled, an interrupt every Interval cycle events — then the benchmark
// loaded on core 0, whose exit ends the simulation loop, and the core started.
func (r Runner) runSort(sp sortRun, drive func(s *sortSystem) error, extra ...Option) error {
	cfg := soc.DefaultConfig()
	cfg.Cores = 1
	cfg.WithPMU = sp.PMU
	cfg.PMUWaveform = sp.Waveform
	cfg.PMUWaveOut = sp.WaveOut
	sys, err := soc.BuildWithOracles(cfg, r.oracles)
	if err != nil {
		return err
	}
	s := &sortSystem{System: sys}
	return r.handRun(sys, func() error {
		s.start = time.Now()
		if sp.PMU {
			s.host = NewAXIHost(s.Queue)
			port.Bind(s.host.Port(), s.PMU.CPUPort(0))
			s.PMU.Start()
			s.host.Write(pmu.RegEnable, 0x3F)
			s.host.Write(pmu.RegThreshSel, pmu.EvCycle)
			s.host.Write(pmu.RegThreshVal, uint32(sp.Interval))
		}
		if err := s.LoadProgram(0, workload.SortBenchmark(sp.SortParams)); err != nil {
			return err
		}
		s.Cores[0].OnExit = func(int64) { s.exited = true; s.Queue.ExitSimLoop("exit") }
		s.StartCores(0)
		return drive(s)
	}, extra...)
}

// Fig5Params configures the PMU functional experiment.
type Fig5Params struct {
	// N sizes the Selection/Bubble arrays (QuickSort gets 10N). The paper
	// uses 3000; the default here is smaller for tractable host time.
	N int
	// SleepUs separates the phases (paper: 1000).
	SleepUs int
	// IntervalCycles is the PMU threshold period (paper: 10000 PMU cycles).
	IntervalCycles int
	// Waveform enables PMU VCD tracing into WaveOut.
	Waveform bool
	WaveOut  io.Writer
}

// DefaultFig5Params returns a scaled-down configuration (see EXPERIMENTS.md
// for the scaling rationale).
func DefaultFig5Params() Fig5Params {
	return Fig5Params{N: 250, SleepUs: 100, IntervalCycles: 10000}
}

// Fig5Result is the full experiment outcome.
type Fig5Result struct {
	Samples []Fig5Sample
	// Final totals for validation.
	PMUTotalInsts  uint64
	Gem5TotalInsts uint64
	HostTime       time.Duration
	SimTicks       sim.Tick
}

// RunFigure5Ctx reproduces Figure 5 on a default Runner (see
// Runner.Figure5).
func RunFigure5Ctx(ctx context.Context, p Fig5Params) (*Fig5Result, error) {
	return Runner{}.Figure5(ctx, p)
}

// Figure5 reproduces Figure 5: the sort benchmark runs on core 0 with the PMU
// RTL model attached; every threshold interrupt the harness reads the PMU
// counters over AXI and snapshots gem5-side statistics over the same window,
// yielding paired IPC/MPKI series. The run carries the runner's options and
// self-profiler. Cancelling ctx aborts the simulation promptly and returns
// ctx.Err().
func (r Runner) Figure5(ctx context.Context, p Fig5Params) (*Fig5Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &Fig5Result{}
	err := r.runSort(sortRun{
		SortParams: workload.SortParams{N: p.N, SleepUs: p.SleepUs},
		PMU:        true, Interval: p.IntervalCycles,
		Waveform: p.Waveform, WaveOut: p.WaveOut,
	}, func(s *sortSystem) error {
		// Interval sampling on the PMU interrupt.
		var lastPMU [6]uint32
		lastGem5 := s.Stats.Snapshot()
		irqPending := false
		s.PMU.OnInterrupt(func(level bool) {
			if level {
				irqPending = true
				s.Queue.ExitSimLoop("pmu irq")
			}
		})
		for !s.exited {
			if err := runFor(ctx, s.System, sim.MaxTick); err != nil {
				return err
			}
			s.Queue.ClearExit()
			if !irqPending {
				continue
			}
			irqPending = false
			// Interrupt handler: read the six counters over AXI (timing).
			var cur [6]uint32
			for i := 0; i < 6; i++ {
				cur[i] = s.host.Read(pmu.RegCounterBase + uint64(4*i))
			}
			nowGem5 := s.Stats.Snapshot()
			commits := float64(0)
			for i := pmu.EvCommit0; i <= pmu.EvCommit3; i++ {
				commits += float64(cur[i] - lastPMU[i])
			}
			misses := float64(cur[pmu.EvL1DMiss] - lastPMU[pmu.EvL1DMiss])
			// The cycle counter resets at the threshold; the window is the
			// configured interval in PMU (1 GHz) cycles = 2x core cycles.
			pmuCoreCycles := float64(p.IntervalCycles) * 2
			gem5Insts := nowGem5["system.cpu0.committedInsts"] - lastGem5["system.cpu0.committedInsts"]
			gem5Misses := nowGem5["system.cpu0.dcache.misses"] - lastGem5["system.cpu0.dcache.misses"]
			sample := Fig5Sample{
				TimeMs:  float64(s.Queue.Now()) / float64(sim.Millisecond),
				PMUIPC:  commits / pmuCoreCycles,
				Gem5IPC: gem5Insts / pmuCoreCycles,
			}
			if commits > 0 {
				sample.PMUMPKI = misses / commits * 1000
			}
			if gem5Insts > 0 {
				sample.Gem5MPKI = gem5Misses / gem5Insts * 1000
			}
			res.Samples = append(res.Samples, sample)
			lastPMU = cur
			lastGem5 = nowGem5
		}
		// Stop settles: the counters read below are the per-cycle machine's.
		s.PMU.Stop()
		res.HostTime = time.Since(s.start)
		res.SimTicks = s.Queue.Now()
		// Counters were snapshot-read cumulatively; totals = final counter
		// reads.
		for i := pmu.EvCommit0; i <= pmu.EvCommit3; i++ {
			res.PMUTotalInsts += uint64(s.PMUWrapper.Counter(i))
		}
		res.Gem5TotalInsts = s.Cores[0].Stats().Committed
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table2Config names one row of Table 2.
type Table2Config struct {
	Name     string
	PMU      bool
	Waveform bool
}

// Table2Configs returns the paper's three configurations.
func Table2Configs() []Table2Config {
	return []Table2Config{
		{Name: "gem5"},
		{Name: "gem5+PMU", PMU: true},
		{Name: "gem5+PMU+waveform", PMU: true, Waveform: true},
	}
}

// Table2Cell is one measured configuration x size point.
type Table2Cell struct {
	Config   string
	Size     int
	HostTime time.Duration
	// Overhead is host time normalised to the plain-gem5 run of this size.
	Overhead float64
	// The work behind HostTime, in counts that do not depend on the host:
	// events the queue dispatched, instructions core 0 committed, cycles the
	// PMU model was ticked and waveform bytes written.
	Events, Committed, ModelTicks, VCDBytes uint64
	// Elided is how many of the ModelTicks were applied in closed form
	// instead of dispatched (sim.EventQueue.Elided: the PMU is the system's
	// only sleeper).
	Elided uint64
}

// Table2 reproduces Table 2: host wall-clock of the sorting benchmark
// with and without the PMU RTL model and waveform tracing, over several
// array sizes, normalised to the PMU-less run. The paper's sizes (3k/30k/
// 60k) are scaled by the sizes argument (default DefaultTable2Sizes). The
// (config, size) cells are independent simulations and run on the runner's
// worker pool; because each cell is a host-time measurement, use Workers =
// 1 when the absolute overheads matter — concurrent workers share host
// cores and inflate each other's times.
func (r Runner) Table2(ctx context.Context, sizes []int, sleepUs int) ([]Table2Cell, error) {
	type job struct {
		cfg Table2Config
		n   int
	}
	var jobs []job
	for _, cfgRow := range Table2Configs() {
		for _, n := range sizes {
			jobs = append(jobs, job{cfgRow, n})
		}
	}
	cells := make([]Table2Cell, len(jobs))
	err := r.ForEach(ctx, len(jobs), func(ctx context.Context, i int) error {
		cell, err := r.runSortOnce(ctx, jobs[i].n, sleepUs, jobs[i].cfg.PMU, jobs[i].cfg.Waveform)
		if err != nil {
			return err
		}
		cell.Config, cell.Size = jobs[i].cfg.Name, jobs[i].n
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Normalise each size to its plain-gem5 cell (always present: the gem5
	// configuration is first in Table2Configs).
	base := map[int]time.Duration{}
	for i, j := range jobs {
		if !j.cfg.PMU {
			base[j.n] = cells[i].HostTime
		}
	}
	for i := range cells {
		if b := base[cells[i].Size]; b > 0 {
			cells[i].Overhead = float64(cells[i].HostTime) / float64(b)
		}
	}
	return cells, nil
}

// DefaultTable2Sizes scales the paper's 3k/30k/60k (1:10:20) down to
// simulator-friendly sizes with the same ratios.
func DefaultTable2Sizes() []int { return []int{60, 600, 1200} }

// RunTable2Config runs a single Table 2 configuration at one size,
// returning the host time (benchmark entry point).
func RunTable2Config(cfg Table2Config, n, sleepUs int) (time.Duration, error) {
	cell, err := Runner{}.runSortOnce(context.Background(), n, sleepUs, cfg.PMU, cfg.Waveform)
	return cell.HostTime, err
}

// runSortOnce runs the sort benchmark once and returns its host time and
// work counts; the caller names the cell.
func (r Runner) runSortOnce(ctx context.Context, n, sleepUs int, withPMU, waveform bool) (Table2Cell, error) {
	var cell Table2Cell
	if err := ctx.Err(); err != nil {
		return cell, err
	}
	var sink countingWriter
	sp := sortRun{SortParams: workload.SortParams{N: n, SleepUs: sleepUs}, PMU: withPMU, Interval: 10000}
	if waveform {
		sp.Waveform, sp.WaveOut = true, &sink
	}
	err := r.runSort(sp, func(s *sortSystem) error {
		if err := runFor(ctx, s.System, sim.MaxTick); err != nil {
			return err
		}
		if !s.exited {
			return fmt.Errorf("experiments: sort benchmark (n=%d) did not finish", n)
		}
		cell.HostTime = time.Since(s.start)
		cell.Events = s.Queue.Dispatched()
		cell.Committed = s.Cores[0].Stats().Committed
		if withPMU {
			cell.ModelTicks = s.PMU.Stats().Ticks
			cell.Elided = s.Queue.Elided()
		}
		return nil
	})
	cell.VCDBytes = sink.n
	return cell, err
}

// countingWriter discards VCD output while paying realistic formatting cost.
type countingWriter struct{ n uint64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += uint64(len(p))
	return len(p), nil
}
