// Command bench is this repository's benchmark: six workloads over the
// co-simulation stack, end-to-end metrics measured with tracing off, and a
// traced run that yields the per-layer metrics. README.md in this directory
// defines every metric; BENCHMARK.json at the repository root is the
// contract the command prints to.
//
//	go run ./bench --workload pmu-cosim --seed 1 --seconds 10 --trace 0
//	go run ./bench                    # every workload, one run each
//	go run ./bench -traced            # the same, per-layer metrics
//	go run ./bench -runs 10 -sets 2   # two sets of ten seeds, compared
//	go run ./bench -compare a.json b.json
//	go run ./bench -update-golden
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// outDir holds everything a run leaves behind; .gitignore names it.
var outDir = filepath.Join("bench", "out")

func main() {
	testing.Init() // registers test.benchtime, which the kernel probes shorten
	var (
		workloadName = flag.String("workload", "", "run this one workload in-process and end with its result line (empty: every workload, one process each)")
		seed         = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 10, "how long one run measures")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		traced       = flag.Bool("traced", false, "suite mode: run every workload with --trace 1")
		runs         = flag.Int("runs", 1, "suite mode: runs per workload, each with the next seed")
		sets         = flag.Int("sets", 1, "suite mode: 2 runs the suite twice and compares the sets")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments")
		update       = flag.Bool("update-golden", false, "regenerate bench/golden.json from the current code")
	)
	flag.Parse()
	switch {
	case *update:
		exitOn(updateGolden(filepath.Join("bench", "golden.json")))
	case *compare:
		if flag.NArg() != 2 {
			exitOn(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		exitOn(err)
		if worse {
			os.Exit(1)
		}
	case *workloadName != "":
		def, ok := findWorkload(*workloadName)
		if !ok {
			exitOn(fmt.Errorf("unknown workload %q", *workloadName))
		}
		exitOn(os.MkdirAll(outDir, 0o755))
		res, err := runWorkload(context.Background(), def, runOpts{
			seed: *seed, seconds: *seconds, traced: *trace == 1, tmpDir: outDir, log: os.Stdout})
		exitOn(err)
		line, err := json.Marshal(res)
		exitOn(err)
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	default:
		if *traced {
			*trace = 1
		}
		exitOn(suite(*seed, *seconds, *trace, *runs, *sets))
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run ends with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type runOpts struct {
	seed    uint64
	seconds float64
	traced  bool
	// small shrinks the inputs and runs one set-up and one pass: the size
	// the unit test affords.
	small  bool
	tmpDir string
	log    io.Writer
}

// setups is how often a run sets up; setup_s is the median.
const setups = 3

// maxPasses ends a run early once it has this many passes. Only sweepd-hit
// gets there: the server keeps every job it ever accepted, so the workload's
// resident set grows with the jobs served, and peak_rss_mb would follow the
// machine's speed if the run's time alone decided how many there are.
const maxPasses = 24

// runWorkload is one run: set up, repeat passes until the time is up, check
// every result, and report either the end-to-end or the per-layer metrics.
func runWorkload(ctx context.Context, def workloadDef, o runOpts) (*result, error) {
	gold, err := loadGolden()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.tmpDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Set-up, several times over: input generation, compile or boot or
	// populate, one checked warm-up op. The last one's products are kept.
	var w workload
	var e *env
	var setupS []float64
	n := setups
	if o.small {
		n = 1
	}
	for i := 0; i < n; i++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		e = &env{ctx: ctx, in: Generate(o.seed, o.small), gold: gold, tmpDir: tmp}
		w = def.New()
		if err := w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up check: %w", def.Name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer w.close()

	var rec, recTraced recorder
	var tr *tracer
	var acc *layerAcc
	if o.traced {
		tr, acc = newTracer(), newLayerAcc()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for {
		t0 := time.Now()
		w.pass(e, &rec)
		rec.endPass(time.Since(t0))
		if o.traced {
			t0 = time.Now()
			w.tracedPass(e, &recTraced, tr, acc)
			recTraced.endPass(time.Since(t0))
			acc.passes++
		}
		if o.small || len(rec.passS) == maxPasses || time.Since(start).Seconds() >= o.seconds {
			break
		}
	}
	runtime.ReadMemStats(&m1)

	res := &result{Metrics: map[string]value{}}
	res.Attempted = rec.attempted + recTraced.attempted
	res.Failed = rec.failed + recTraced.failed
	errs := append(rec.errs, recTraced.errs...)
	if o.traced {
		if err := tracedMetrics(e, w, &rec, &recTraced, tr, acc, &m0, &m1); err != nil {
			res.Attempted++
			res.Failed++
			errs = append(errs, err.Error())
		}
		for _, d := range perLayer {
			res.Metrics[d.Name] = value{acc.values[d.Name], d.Unit}
		}
		path := filepath.Join(o.tmpDir, "trace-"+def.Name+".json")
		if err := tr.write(path, def.Name, acc.values); err != nil {
			return nil, err
		}
		fmt.Fprintf(o.log, "spans: %d in %s\n", len(tr.spans), path)
	} else {
		vals := endToEndMetrics(&rec, setupS, &m0, &m1)
		for _, d := range endToEnd {
			res.Metrics[d.Name] = value{vals[d.Name], d.Unit}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	printRun(o.log, def, e.in, &rec, res, o.traced, errs)
	return res, nil
}

// endToEndMetrics computes the user-visible metrics of an untraced run.
//
// Host noise on a shared machine is one-sided and comes in phases of
// seconds: the same op was seen to take 380 to 650 ms within one process,
// and run medians spread 18% where run minima spread 6%. So every timing is
// taken from the run's best pass: a pass's ops give its median and the mean
// of its slowest tenth, and the run reports the lowest of each over its
// passes.
// Passes are identical work, so points and simulated time per pass are
// constants and the two rates follow from the best pass's wall time.
func endToEndMetrics(r *recorder, setupS []float64, m0, m1 *runtime.MemStats) map[string]float64 {
	passes := float64(len(r.passS))
	wall := lowest(r.passS)
	points := float64(r.points)
	return map[string]float64{
		"setup_s":            median(setupS),
		"wall_s":             wall,
		"op_p50_ms":          lowest(r.passP50),
		"op_tail_ms":         lowest(r.passTail),
		"points_per_s":       ratio(points/passes, wall),
		"sim_us_per_host_s":  ratio(float64(r.simTicks)/float64(simMicrosecond)/passes, wall),
		"cosim_overhead":     median(r.ratios),
		"allocs_per_point":   ratio(float64(m1.Mallocs-m0.Mallocs), points),
		"alloc_mb_per_point": ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1e6, points),
	}
}

// tracedMetrics finishes a traced run: the micro-probes, the workload's own
// probes, then the roll-up of the traced passes.
func tracedMetrics(e *env, w workload, rec, recTraced *recorder, tr *tracer, acc *layerAcc, m0, m1 *runtime.MemStats) error {
	first := e.in.Grid[0]
	if err := microProbes(e, acc, first); err != nil {
		return err
	}
	if err := w.extras(e, tr, acc); err != nil {
		return err
	}
	tr.finish()
	acc.finish()
	acc.svcFinish()
	acc.set("trace.gen_ms", median(tr.durations("trace.gen")))
	acc.set("soc.build_ms", median(tr.durations("soc.build")))
	acc.set("soc.play_trace_ms", median(append(tr.durations("soc.play_trace"), tr.durations("soc.load_program")...)))
	acc.set("soc.run_ms", median(tr.durations("soc.run")))
	acc.set("soc.build_share", ratio(float64(tr.total("soc.build")), float64(tr.total("op"))))
	acc.set("nvdla.cosim_overhead_ideal", median(rec.ratiosIdeal))
	acc.set("host.gc_cycles", float64(m1.NumGC-m0.NumGC))
	acc.set("host.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	acc.set("host.peak_rss_mb", peakRSSMB())
	acc.set("bench.trace_overhead", ratio(lowest(recTraced.passS), lowest(rec.passS)))
	acc.set("bench.samples", float64(rec.ops))
	acc.set("bench.failed_share", ratio(float64(rec.failed+recTraced.failed), float64(rec.attempted+recTraced.attempted)))
	return nil
}
