package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/pmu"
	"gem5rtl/internal/port"
	"gem5rtl/internal/prof"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/trace"
	guest "gem5rtl/internal/workload"
)

// The staged runs replay what experiments.RunTable2Config and
// experiments.Run do, one public soc/trace call at a time, so the harness
// can put a span around every layer boundary and read the built system's
// statistics afterwards. The untraced measurement never uses them: it
// calls the experiments entry points whole. They serve the set-up check,
// the golden file and the traced run.

// observed is what one staged run yields: the checked results and the raw
// material of the per-layer metrics.
type observed struct {
	Result goldenEntry
	RunNS  int64        // duration of the soc.run stage
	Attr   *prof.Report // nil unless profiled
	Sys    sysStats
}

// sysStats are the component statistics the per-layer table reports.
type sysStats struct {
	L1DHits, L1DMisses, LLCMisses uint64
	MemAccepted, MemRetries       uint64
	MemRowHitRate, MemAvgReadLat  float64
	ObjTicks, ObjRetired          uint64
	ObjTotalMemLat                uint64
	NVDLAReads, VCDSize           uint64
}

func collect(s *soc.System) (goldenEntry, sysStats) {
	var g goldenEntry
	var st sysStats
	g.Ticks = uint64(s.Queue.Now())
	if len(s.Cores) > 0 {
		cs := s.Cores[0].Stats()
		g.CommittedInsts, g.NumCycles = cs.Committed, cs.Cycles
		ds := s.L1Ds[0].Stats()
		st.L1DHits, st.L1DMisses = ds.Hits, ds.Misses
	}
	ls := s.LLC.Stats()
	st.LLCMisses = ls.Misses
	if s.DRAM != nil {
		ds := s.DRAM.Stats()
		g.MemBytesRead = ds.BytesRead
		st.MemAccepted, st.MemRetries = ds.Reads+ds.Writes, ds.RetriesSent
		st.MemRowHitRate, st.MemAvgReadLat = ds.RowHitRate(), ds.AvgReadLatency()
	}
	for _, o := range s.NVDLAs {
		os := o.Stats()
		g.NVDLAMemReads = append(g.NVDLAMemReads, os.MemReads)
		st.NVDLAReads += os.MemReads
		st.ObjTicks += os.Ticks
		st.ObjRetired += os.RetiredMem
		st.ObjTotalMemLat += uint64(os.TotalMemLat)
	}
	if s.PMU != nil {
		st.ObjTicks += s.PMU.Stats().Ticks
	}
	return g, st
}

// countingWriter discards VCD text and counts it, like the sink
// experiments.RunTable2Config uses for its waveform row.
type countingWriter struct{ n uint64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += uint64(len(p))
	return len(p), nil
}

// stagedSort is one Table 2 run: the sort benchmark on a one-core system,
// optionally with the PMU RTL model attached and its waveform traced.
func stagedSort(tr *tracer, parent, op int, n, sleepUs int, withPMU, waveform, profile bool) (*observed, error) {
	cfg := soc.DefaultConfig()
	cfg.Cores = 1
	cfg.WithPMU = withPMU
	var sink countingWriter
	if waveform {
		cfg.PMUWaveform = true
		cfg.PMUWaveOut = &sink
	}
	id := tr.begin("soc.build", parent, op)
	s, err := soc.Build(cfg)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("soc.load_program", parent, op)
	if withPMU {
		host := experiments.NewAXIHost(s.Queue)
		port.Bind(host.Port(), s.PMU.CPUPort(0))
		s.PMU.Start()
		host.Write(pmu.RegEnable, 0x3F)
		host.Write(pmu.RegThreshSel, pmu.EvCycle)
		host.Write(pmu.RegThreshVal, 10000)
	}
	err = s.LoadProgram(0, guest.SortBenchmark(guest.SortParams{N: n, SleepUs: sleepUs}))
	tr.end(id)
	if err != nil {
		return nil, err
	}

	done := false
	s.Cores[0].OnExit = func(int64) { done = true; s.Queue.ExitSimLoop("exit") }
	id = tr.begin("soc.run", parent, op)
	start := time.Now()
	if profile {
		s.AttachSelfProfiler(0)
	}
	s.StartCores(0)
	s.Queue.RunUntil(sim.MaxTick)
	out := &observed{Attr: prof.FromQueue(s.Queue), RunNS: time.Since(start).Nanoseconds()}
	tr.end(id)
	if !done {
		return nil, fmt.Errorf("sort benchmark (n=%d) did not finish", n)
	}
	out.Result, out.Sys = collect(s)
	out.Sys.VCDSize = sink.n
	return out, nil
}

// pointConfig maps a sweep point to its SoC, as experiments.Run does.
func pointConfig(spec experiments.RunSpec) soc.Config {
	cfg := soc.DefaultConfig()
	cfg.Cores = 1
	cfg.Memory = spec.Memory
	cfg.NVDLAs = spec.NVDLAs
	cfg.NVDLAMaxInflight = spec.Inflight
	return cfg
}

// stagedPoint is one NVDLA simulation point, stage by stage.
func stagedPoint(ctx context.Context, tr *tracer, parent, op int, spec experiments.RunSpec, profile bool) (*observed, error) {
	s, err := stagedBuild(tr, parent, op, spec)
	if err != nil {
		return nil, err
	}
	id := tr.begin("soc.run", parent, op)
	start := time.Now()
	if profile {
		s.AttachSelfProfiler(0)
	}
	doneAt, err := s.RunUntilNVDLAsDoneCtx(ctx, spec.Limit)
	out := &observed{Attr: prof.FromQueues(s.ShardQueues...), RunNS: time.Since(start).Nanoseconds()}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	out.Result, out.Sys = collect(s)
	// The queue stops at the close of the completion tick's epoch; the
	// result experiments.Run reports is the completion tick itself.
	out.Result.Ticks = uint64(doneAt)
	return out, nil
}

// stagedBuild generates the point's traces, builds its system and plays the
// traces into it: everything experiments.Run does before simulating.
func stagedBuild(tr *tracer, parent, op int, spec experiments.RunSpec) (*soc.System, error) {
	id := tr.begin("trace.gen", parent, op)
	traces := make([]*trace.Trace, spec.NVDLAs)
	for i := range traces {
		t, err := trace.Scaled(spec.Workload, uint64(i+1)<<32, spec.Scale)
		if err != nil {
			tr.end(id)
			return nil, err
		}
		traces[i] = t
	}
	tr.end(id)

	id = tr.begin("soc.build", parent, op)
	s, err := soc.Build(pointConfig(spec))
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("soc.play_trace", parent, op)
	for i, t := range traces {
		s.NVDLAs[i].Start()
		s.PlayTrace(i, t)
	}
	tr.end(id)
	return s, nil
}

// ckptProbe is what stagedWarm measured about checkpointing one point.
type ckptProbe struct {
	SaveMs, RestoreMs float64
	Bytes             int
	// WarmMs is restore plus the simulated remainder: what a warm-started
	// point costs after its build.
	WarmMs float64
	Result goldenEntry
}

// stagedWarm runs a point to the warm-up tick, snapshots it, restores the
// snapshot into a second freshly built system and finishes the run there —
// the path experiments.WithWarmStart takes on a cache hit. It returns nil
// when the point completes inside the warm-up window.
func stagedWarm(ctx context.Context, tr *tracer, parent, op int, spec experiments.RunSpec, warmup sim.Tick) (*ckptProbe, error) {
	s, err := stagedBuild(tr, parent, op, spec)
	if err != nil {
		return nil, err
	}
	id := tr.begin("soc.run", parent, op)
	_, remaining, err := s.RunNVDLAPhase(ctx, warmup)
	tr.end(id)
	if err != nil || remaining == 0 {
		return nil, err
	}
	var buf bytes.Buffer
	id = tr.begin("ckpt.save", parent, op)
	t0 := time.Now()
	err = s.Save(&buf)
	probe := &ckptProbe{SaveMs: ms(time.Since(t0)), Bytes: buf.Len()}
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("soc.build", parent, op)
	warm, err := soc.Build(pointConfig(spec))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	id = tr.begin("ckpt.restore", parent, op)
	_, err = warm.Restore(bytes.NewReader(buf.Bytes()))
	tr.end(id)
	probe.RestoreMs = ms(time.Since(t0))
	if err != nil {
		return nil, err
	}
	id = tr.begin("soc.run", parent, op)
	doneAt, err := warm.RunUntilNVDLAsDoneCtx(ctx, spec.Limit)
	tr.end(id)
	probe.WarmMs = ms(time.Since(t0))
	if err != nil {
		return nil, err
	}
	probe.Result, _ = collect(warm)
	probe.Result.Ticks = uint64(doneAt)
	return probe, nil
}

// stagedStandalone is the Table 3 baseline: the accelerator model ticked
// against a zero-latency memory loop, no SoC around it.
func stagedStandalone(ctx context.Context, tr *tracer, parent, op int, workload string, scale int) (time.Duration, error) {
	id := tr.begin("trace.gen", parent, op)
	t, err := trace.Scaled(workload, 0, scale)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	id = tr.begin("standalone.run", parent, op)
	d, err := trace.RunStandaloneCtx(ctx, t)
	tr.end(id)
	return d, err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
