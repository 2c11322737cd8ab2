package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/sim"
)

// workloadDef names a workload and says why the benchmark has it.
type workloadDef struct {
	Name string
	Why  string
	New  func() workload
}

var workloads = []workloadDef{
	{"pmu-cosim", "Table 2 sort with and without the PMU Verilog model: RTL engine and rtlobject coupling do most of the work, memory system none; busy phases and sleep windows both occur",
		func() workload { return &pmuWorkload{} }},
	{"pmu-waveform", "the same pairs with the PMU waveform written to a counting sink: every cycle's values are read out, so a gating gain that costs the VCD path shows here",
		func() workload { return &pmuWorkload{waveform: true} }},
	{"nvdla-cosim", "Table 3 at scale 1: standalone model vs full system on ideal and DDR4-4ch memory for both traces; accelerator model, memory pump, noc and mem work, the RTL VM idles",
		func() workload { return &cosimWorkload{} }},
	{"dse-grid", "Figures 6/7 grid at scale 32 through Runner.Sweep: light points are build and trace cost, the 4-NVDLA DDR4-1ch points are mem/noc/port back-pressure",
		func() workload { return &gridWorkload{} }},
	{"sweepd-cold", "two closed-loop clients submit overlapping jobs to a live sweepd with an empty store: queue, dedup, store writes and the runner under two workers",
		func() workload { return &sweepdWorkload{} }},
	{"sweepd-hit", "the same jobs resubmitted to a populated sweepd: every point is cached at submit, so only HTTP, JSON, fingerprinting and store reads run",
		func() workload { return &sweepdWorkload{hit: true} }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// env is what a workload works from: the generated inputs, the reference
// results and a scratch directory inside the checkout.
type env struct {
	ctx    context.Context
	in     *Inputs
	gold   golden
	tmpDir string
}

// workload is one of the benchmark's six. A pass is its fixed unit of work;
// the harness repeats passes until the run's time is up, so every count is
// reported per pass and repeats exactly.
type workload interface {
	// setup does what precedes timing: compile, boot, populate, and one
	// untimed warm-up op checked against the golden file.
	setup(e *env) error
	// pass runs the work once through the public entry points, untraced.
	pass(e *env, r *recorder)
	// tracedPass runs the same work stage by stage under spans with the
	// self-profiler on soc.run.
	tracedPass(e *env, r *recorder, tr *tracer, acc *layerAcc)
	// extras runs, once per traced run, the probes only this workload has.
	extras(e *env, tr *tracer, acc *layerAcc) error
	close()
}

// recorder collects what the passes of one run measured.
type recorder struct {
	opMs []float64 // host time of each op of the pass under way
	// Per finished pass: its wall time, the median of its ops and the mean
	// of their slowest tenth.
	passS, passP50, passTail []float64
	ops                      int // ops over all passes
	// ratios holds op / reference host-time ratios, one per pair;
	// ratiosIdeal the nvdla-cosim perfect-memory / standalone ones.
	ratios, ratiosIdeal []float64
	points              int    // simulation runs completed or served
	simTicks            uint64 // simulated time run or served, in ticks
	attempted, failed   int
	errs                []string
}

// endPass closes the pass under way.
func (r *recorder) endPass(wall time.Duration) {
	r.passS = append(r.passS, wall.Seconds())
	r.passP50 = append(r.passP50, median(r.opMs))
	r.passTail = append(r.passTail, tailMean(r.opMs))
	r.ops += len(r.opMs)
	r.opMs = r.opMs[:0]
}

// merge folds in what a client goroutine recorded on its own.
func (r *recorder) merge(o *recorder) {
	r.opMs = append(r.opMs, o.opMs...)
	r.ratios = append(r.ratios, o.ratios...)
	r.points += o.points
	r.simTicks += o.simTicks
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
}

// done counts one attempted operation and, when err is set, its failure.
func (r *recorder) done(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 8 {
			r.errs = append(r.errs, err.Error())
		}
		return false
	}
	return true
}

// ---- pmu-cosim, pmu-waveform ---------------------------------------------

type pmuWorkload struct{ waveform bool }

func (w *pmuWorkload) config() experiments.Table2Config {
	if w.waveform {
		return experiments.Table2Config{Name: "gem5+PMU+waveform", PMU: true, Waveform: true}
	}
	return experiments.Table2Config{Name: "gem5+PMU", PMU: true}
}

func (w *pmuWorkload) setup(e *env) error {
	for _, withPMU := range []bool{false, true} {
		o, err := stagedSort(nil, -1, 0, e.in.SortN, e.in.SleepUs, withPMU, withPMU && w.waveform, false)
		if err != nil {
			return err
		}
		if err := e.gold.check(sortKey(e.in.SortN, e.in.SleepUs, withPMU), o.Result); err != nil {
			return err
		}
	}
	return nil
}

func (w *pmuWorkload) pass(e *env, r *recorder) {
	n, sleep := e.in.SortN, e.in.SleepUs
	timed := func(cfg experiments.Table2Config) (time.Duration, bool) {
		t0 := time.Now()
		_, err := experiments.RunTable2Config(cfg, n, sleep)
		d := time.Since(t0)
		if !r.done(err) {
			return d, false
		}
		r.points++
		r.simTicks += e.gold[sortKey(n, sleep, cfg.PMU)].Ticks
		return d, true
	}
	plain, ok1 := timed(experiments.Table2Config{Name: "gem5"})
	op, ok2 := timed(w.config())
	if ok1 && ok2 {
		r.opMs = append(r.opMs, ms(op))
		r.ratios = append(r.ratios, float64(op)/float64(plain))
	}
}

func (w *pmuWorkload) tracedPass(e *env, r *recorder, tr *tracer, acc *layerAcc) {
	n, sleep := e.in.SortN, e.in.SleepUs
	for _, withPMU := range []bool{false, true} {
		withPMU := withPMU
		tracedOp(e, r, tr, acc, sortKey(n, sleep, withPMU), func(parent, op int) (*observed, error) {
			return stagedSort(tr, parent, op, n, sleep, withPMU, withPMU && w.waveform, true)
		})
	}
}

// tracedOp runs one staged simulation under an op span, checks it against
// the golden entry under key, and folds it into the layer accumulator.
func tracedOp(e *env, r *recorder, tr *tracer, acc *layerAcc, key string, run func(parent, op int) (*observed, error)) {
	op := acc.nextOp()
	id := tr.begin("op", -1, op)
	o, err := run(id, op)
	if err == nil {
		c := tr.begin("check", id, op)
		err = e.gold.check(key, o.Result)
		tr.end(c)
	}
	tr.end(id)
	if r.done(err) {
		acc.add(o)
	}
}

func (w *pmuWorkload) extras(e *env, tr *tracer, acc *layerAcc) error {
	// The paired counter series of Figure 5: the repository's one
	// reference-checked accuracy figure.
	res, err := experiments.RunFigure5Ctx(e.ctx, fig5Params(e.in))
	if err != nil {
		return err
	}
	got := goldenEntry{Ticks: uint64(res.SimTicks), CommittedInsts: res.Gem5TotalInsts, PMUInsts: res.PMUTotalInsts}
	if err := e.gold.check(fig5Key(e.in.SortN, e.in.SleepUs), got); err != nil {
		return err
	}
	var ipcErr float64
	for _, s := range res.Samples {
		ipcErr = math.Max(ipcErr, math.Abs(s.PMUIPC-s.Gem5IPC))
	}
	acc.set("pmu.ipc_err_max", ipcErr)
	acc.set("pmu.inst_err_ppm", math.Abs(float64(res.PMUTotalInsts)-float64(res.Gem5TotalInsts))/float64(res.Gem5TotalInsts)*1e6)
	if !w.waveform {
		return nil
	}
	// What writing the waveform costs per model tick: the same run without
	// the VCD writer, against the profiled waveform runs of the passes.
	op := acc.nextOp()
	id := tr.begin("op", -1, op)
	o, err := stagedSort(tr, id, op, e.in.SortN, e.in.SleepUs, true, false, true)
	tr.end(id)
	if err != nil {
		return err
	}
	// Profiled runs alternate plain, waveform; the waveform ones are odd.
	var wave []float64
	for i := 1; i < len(acc.opRunNS); i += 2 {
		wave = append(wave, acc.opRunNS[i])
	}
	acc.set("rtl.vcd_ns_per_tick", (median(wave)-float64(o.RunNS))/float64(o.Sys.ObjTicks))
	return nil
}

func (w *pmuWorkload) close() {}

// ---- nvdla-cosim ----------------------------------------------------------

type cosimWorkload struct{}

func (w *cosimWorkload) setup(e *env) error {
	// Warm-up ops: the pass's four full-system points, staged and fully
	// checked.
	for _, spec := range cosimSpecs(e.in.CosimScale) {
		o, err := stagedPoint(e.ctx, nil, -1, 0, spec, false)
		if err != nil {
			return err
		}
		if err := e.gold.check(pointKey(spec), o.Result); err != nil {
			return err
		}
	}
	return nil
}

func (w *cosimWorkload) pass(e *env, r *recorder) {
	p := experiments.DSEParams{Scale: e.in.CosimScale, Limit: simLimit}
	ddr, ideal := 1.0, 1.0
	ok := true
	for _, wl := range experiments.Workloads() {
		standalone, err := experiments.RunStandaloneOnce(wl, p)
		if r.done(err) {
			r.points++
		} else {
			ok = false
		}
		for _, mem := range []string{"ideal", "DDR4-4ch"} {
			spec := p.Spec(wl, 1, mem, 240)
			t0 := time.Now()
			ticks, err := experiments.Run(e.ctx, spec)
			d := time.Since(t0)
			if err == nil {
				err = e.gold.checkTicks(pointKey(spec), uint64(ticks))
			}
			if !r.done(err) {
				ok = false
				continue
			}
			r.points++
			r.simTicks += uint64(ticks)
			if mem == "ideal" {
				ideal *= float64(d) / float64(standalone)
			} else {
				ddr *= float64(d) / float64(standalone)
				r.opMs = append(r.opMs, ms(d))
			}
		}
	}
	if ok {
		// Geometric mean over the two traces.
		r.ratios = append(r.ratios, math.Sqrt(ddr))
		r.ratiosIdeal = append(r.ratiosIdeal, math.Sqrt(ideal))
	}
}

func (w *cosimWorkload) tracedPass(e *env, r *recorder, tr *tracer, acc *layerAcc) {
	for _, wl := range experiments.Workloads() {
		op := acc.nextOp()
		id := tr.begin("op", -1, op)
		_, err := stagedStandalone(e.ctx, tr, id, op, wl, e.in.CosimScale)
		tr.end(id)
		r.done(err)
	}
	for _, spec := range cosimSpecs(e.in.CosimScale) {
		tracedPoint(e, r, tr, acc, spec)
	}
}

// tracedPoint stages one NVDLA point under an op span and checks it.
func tracedPoint(e *env, r *recorder, tr *tracer, acc *layerAcc, spec experiments.RunSpec) {
	tracedOp(e, r, tr, acc, pointKey(spec), func(parent, op int) (*observed, error) {
		return stagedPoint(e.ctx, tr, parent, op, spec, true)
	})
}

func (w *cosimWorkload) extras(*env, *tracer, *layerAcc) error { return nil }
func (w *cosimWorkload) close()                                {}

// ---- dse-grid ---------------------------------------------------------------

type gridWorkload struct{}

func (w *gridWorkload) setup(e *env) error {
	// Warm-up ops: the contended cells, 4 NVDLAs on DDR4-1ch, the same for
	// every seed.
	for _, spec := range e.in.Grid {
		if spec.NVDLAs != 4 || spec.Memory != "DDR4-1ch" || spec.Workload != "sanity3" {
			continue
		}
		o, err := stagedPoint(e.ctx, nil, -1, 0, spec, false)
		if err != nil {
			return err
		}
		if err := e.gold.check(pointKey(spec), o.Result); err != nil {
			return err
		}
	}
	return nil
}

func (w *gridWorkload) pass(e *env, r *recorder) {
	results, err := experiments.Runner{Workers: 1}.Sweep(e.ctx, e.in.Grid)
	if err != nil {
		r.done(err)
		return
	}
	base := map[experiments.RunSpec]time.Duration{}
	for _, res := range results {
		if res.Err == nil && res.Spec.IsIdeal() {
			base[res.Spec] = res.HostTime
		}
	}
	for _, res := range results {
		err := res.Err
		if err == nil {
			err = e.gold.checkTicks(pointKey(res.Spec), uint64(res.Ticks))
		}
		if err == nil {
			want := float64(e.gold[pointKey(res.Spec.Baseline())].Ticks) / float64(res.Ticks)
			if res.Perf != want {
				err = fmt.Errorf("%v: perf %v, golden %v", res.Spec, res.Perf, want)
			}
		}
		if !r.done(err) {
			continue
		}
		r.points++
		r.simTicks += uint64(res.Ticks)
		if res.Spec.IsIdeal() {
			continue
		}
		r.opMs = append(r.opMs, ms(res.HostTime))
		if b := base[res.Spec.Baseline()]; b > 0 {
			r.ratios = append(r.ratios, float64(res.HostTime)/float64(b))
		}
	}
}

func (w *gridWorkload) tracedPass(e *env, r *recorder, tr *tracer, acc *layerAcc) {
	for _, spec := range e.in.Grid {
		tracedPoint(e, r, tr, acc, spec)
	}
}

// warmupTick is where the checkpoint probe splits a run, the warm-start
// tick the repository's own sweep benchmark uses.
const warmupTick = 2 * sim.Microsecond

func (w *gridWorkload) extras(e *env, tr *tracer, acc *layerAcc) error {
	// What Sweep and Run add around the simulations, from one untraced pass.
	t0 := time.Now()
	results, err := experiments.Runner{Workers: 1}.Sweep(e.ctx, e.in.Grid)
	if err != nil {
		return err
	}
	wall := float64(time.Since(t0))
	var all, baseline float64
	for _, res := range results {
		all += float64(res.HostTime)
		if res.Spec.IsIdeal() {
			baseline += float64(res.HostTime)
		}
	}
	acc.set("experiments.baseline_share", baseline/wall)
	acc.set("experiments.sweep_overhead_share", (wall-all)/wall)

	var over, save, restore, size, cold, warm []float64
	for _, spec := range e.in.Grid {
		if spec.NVDLAs != 1 || spec.IsIdeal() {
			continue
		}
		// Run's own cost: the whole call against the same stages unwrapped.
		t0 := time.Now()
		if _, err := experiments.Run(e.ctx, spec); err != nil {
			return err
		}
		whole := time.Since(t0)
		t0 = time.Now()
		o, err := stagedPoint(e.ctx, nil, -1, 0, spec, false)
		if err != nil {
			return err
		}
		over = append(over, ms(whole-time.Since(t0)))

		op := acc.nextOp()
		id := tr.begin("op", -1, op)
		probe, err := stagedWarm(e.ctx, tr, id, op, spec, warmupTick)
		tr.end(id)
		if err != nil {
			return err
		}
		if probe == nil {
			continue
		}
		if err := e.gold.checkTicks(pointKey(spec), probe.Result.Ticks); err != nil {
			return fmt.Errorf("warm start: %w", err)
		}
		save = append(save, probe.SaveMs)
		restore = append(restore, probe.RestoreMs)
		size = append(size, float64(probe.Bytes))
		cold = append(cold, float64(o.RunNS)/1e6)
		warm = append(warm, probe.WarmMs)
	}
	acc.set("experiments.run_overhead_ms", median(over))
	acc.set("ckpt.save_ms", median(save))
	acc.set("ckpt.restore_ms", median(restore))
	acc.set("ckpt.bytes", median(size))
	acc.set("ckpt.warm_speedup", ratio(sum(cold), sum(warm)))
	return nil
}

func (w *gridWorkload) close() {}
