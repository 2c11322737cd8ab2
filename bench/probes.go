package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/kernelbench"
	"gem5rtl/internal/nvdla"
	"gem5rtl/internal/pmu"
	"gem5rtl/internal/rtl"
	"gem5rtl/internal/rtlobject"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/sweepd"
	"gem5rtl/internal/trace"
)

// kernelRows maps the rows of the repository's kernel benchmark suite to the
// per-layer metrics they feed. The bodies are kernelbench's own; the
// harness only runs them.
var kernelRows = map[string]string{
	"queue/calendar": "sim.dispatch_ns",
	"queue/oneshot":  "sim.oneshot_ns",
	"packet/pool":    "port.pool_roundtrip_ns",
	"rtl/bytecode":   "rtlc.tick_ns",
	"rtl/closure":    "rtl.closure_tick_ns",
}

// probeBenchtime keeps each kernel row short: the rows cost nanoseconds per
// op, so a tenth of a second is millions of iterations. The unit test only
// needs the rows to run.
const (
	probeBenchtime      = "100ms"
	probeBenchtimeSmall = "50x"
)

// microProbes prices single layers in isolation, once per traced run. The
// share computation needs the model tick costs, so they run before
// layerAcc.finish.
func microProbes(e *env, acc *layerAcc, first experiments.RunSpec) error {
	benchtime := probeBenchtime
	if e.in.Small {
		benchtime = probeBenchtimeSmall
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return err
	}
	for _, b := range kernelbench.Suite() {
		if name, ok := kernelRows[b.Name]; ok {
			r := testing.Benchmark(b.Run)
			acc.set(name, float64(r.T.Nanoseconds())/float64(r.N))
		}
	}

	// The PMU wrapper's tick on an idle model, and the bare model's, whose
	// difference is the wrapper's own glue.
	w, err := pmu.NewWrapperEngine(pmu.NumCounters, rtl.EngineBytecode)
	if err != nil {
		return err
	}
	const ticks = 200_000
	in := &rtlobject.Input{}
	t0 := time.Now()
	for i := 0; i < ticks; i++ {
		w.Tick(in)
	}
	full := float64(time.Since(t0).Nanoseconds()) / ticks
	t0 = time.Now()
	for i := 0; i < ticks; i++ {
		w.Model().Tick()
	}
	acc.set("pmu.wrapper_tick_ns", full)
	acc.pmuGlueNS = max(0, full-float64(time.Since(t0).Nanoseconds())/ticks)

	var compile []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := pmu.CompileModelEngine(pmu.NumCounters, rtl.EngineBytecode); err != nil {
			return err
		}
		compile = append(compile, ms(time.Since(t0)))
	}
	acc.set("rtlc.compile_ms", median(compile))

	// A standalone run at the grid's scale lasts a millisecond or two: take
	// the best of a few.
	var perTick []float64
	for i := 0; i < 5; i++ {
		ns, err := standaloneTick(first.Workload, first.Scale)
		if err != nil {
			return err
		}
		perTick = append(perTick, ns)
	}
	acc.set("nvdla.standalone_ns_per_tick", lowest(perTick))

	const fps = 2000
	t0 = time.Now()
	for i := 0; i < fps; i++ {
		_ = first.Fingerprint()
	}
	acc.set("experiments.fingerprint_us", float64(time.Since(t0).Nanoseconds())/fps/1e3)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := soc.Build(pointConfig(first)); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	acc.set("soc.build_allocs", float64(m1.Mallocs-m0.Mallocs))

	return storeProbe(e, acc)
}

// standaloneTick ticks the accelerator model against a zero-latency memory
// loop, as trace.RunStandaloneCtx does, and returns host ns per model tick.
// RunStandaloneCtx reports only its duration; the share split needs the
// tick count beside it.
func standaloneTick(workload string, scale int) (float64, error) {
	t, err := trace.Scaled(workload, 0, scale)
	if err != nil {
		return 0, err
	}
	dla := nvdla.New(nvdla.DefaultConfig("probe"))
	for _, op := range t.Ops {
		switch op.Kind {
		case trace.OpWriteReg:
			dla.WriteReg(op.Addr, op.Val)
		case trace.OpStart:
			dla.WriteReg(nvdla.RegCtrl, 1)
		}
	}
	in := &rtlobject.Input{}
	cycles := 0
	t0 := time.Now()
	for ; !dla.Done(); cycles++ {
		out := dla.Tick(in)
		in = &rtlobject.Input{}
		for _, req := range out.MemRequests {
			resp := rtlobject.MemResponse{ID: req.ID, Write: req.Write}
			if !req.Write {
				resp.Data = make([]byte, req.Size)
			}
			in.MemResponses = append(in.MemResponses, resp)
		}
	}
	return ratio(float64(time.Since(t0).Nanoseconds()), float64(cycles)), nil
}

// storeProbe times the sweepd result store's durable write and its read.
func storeProbe(e *env, acc *layerAcc) error {
	dir, err := os.MkdirTemp(e.tmpDir, "store-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := sweepd.OpenStore(dir)
	if err != nil {
		return err
	}
	var put []float64
	for i, spec := range e.in.Grid {
		if i == 16 {
			break
		}
		t0 := time.Now()
		if err := st.Put(spec, 1); err != nil {
			return fmt.Errorf("store probe: %w", err)
		}
		put = append(put, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	acc.set("sweepd.store_put_us", median(put))
	fp := e.in.Grid[0].Fingerprint()
	const gets = 20000
	t0 := time.Now()
	for i := 0; i < gets; i++ {
		st.Get(fp)
	}
	acc.set("sweepd.store_get_us", float64(time.Since(t0).Nanoseconds())/gets/1e3)
	return nil
}
