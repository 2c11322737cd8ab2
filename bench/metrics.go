package main

import (
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// metricDef names one metric the command prints. BENCHMARK.json lists the
// same names, units and directions; bench_test.go holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	Bound float64
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// and profiling off. Every one is defined on every workload; README.md says
// what each means there.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"points_per_s", "1/s", "higher", 0.25},
	{"sim_us_per_host_s", "us/s", "higher", 0.25},
	{"cosim_overhead", "ratio", "lower", 0.25},
	{"allocs_per_point", "count", "lower", 0.05},
	{"alloc_mb_per_point", "MB", "lower", 0.05},
}

// perLayer are the metrics of single layers, from the traced run. A metric
// that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// event kernel
	{"sim.events", "count", "lower", 0},
	{"sim.host_ns_per_event", "ns", "lower", 0},
	{"sim.dispatch_ns", "ns", "lower", 0},
	{"sim.oneshot_ns", "ns", "lower", 0},
	{"sim.kernel_share_est", "ratio", "lower", 0},
	{"sim.unattributed_share", "ratio", "lower", 0},
	// ports and packets
	{"port.pool_roundtrip_ns", "ns", "lower", 0},
	// core model
	{"cpu.self_share", "ratio", "lower", 0},
	{"cpu.events", "count", "lower", 0},
	{"cpu.committed_insts", "count", "higher", 0},
	{"cpu.sim_mips", "1/us", "higher", 0},
	// caches, interconnect, memory
	{"cache.self_share", "ratio", "lower", 0},
	{"cache.events", "count", "lower", 0},
	{"cache.l1d_hits", "count", "higher", 0},
	{"cache.l1d_misses", "count", "lower", 0},
	{"cache.llc_misses", "count", "lower", 0},
	{"noc.self_share", "ratio", "lower", 0},
	{"noc.events", "count", "lower", 0},
	{"mem.self_share", "ratio", "lower", 0},
	{"mem.events", "count", "lower", 0},
	{"mem.bytes_read", "count", "lower", 0},
	{"mem.row_hit_rate", "ratio", "higher", 0},
	{"mem.avg_read_latency_ticks", "count", "lower", 0},
	{"mem.retries_sent", "count", "lower", 0},
	{"mem.accept_ratio", "ratio", "higher", 0},
	// RTLObject coupling
	{"rtlobject.self_share", "ratio", "lower", 0},
	{"rtlobject.ticks", "count", "lower", 0},
	{"rtlobject.ns_per_tick", "ns", "lower", 0},
	{"rtlobject.avg_mem_latency_ticks", "count", "lower", 0},
	// RTL engine
	{"rtlc.self_share", "ratio", "lower", 0},
	{"rtlc.comb_share", "ratio", "lower", 0},
	{"rtlc.seq_share", "ratio", "lower", 0},
	{"rtlc.memw_share", "ratio", "lower", 0},
	{"rtlc.phase_events", "count", "lower", 0},
	{"rtlc.tick_ns", "ns", "lower", 0},
	{"rtl.closure_tick_ns", "ns", "lower", 0},
	{"rtlc.compile_ms", "ms", "lower", 0},
	{"rtl.vcd_bytes", "count", "lower", 0},
	{"rtl.vcd_ns_per_tick", "ns", "lower", 0},
	// accelerator models
	{"pmu.self_share", "ratio", "lower", 0},
	{"pmu.wrapper_tick_ns", "ns", "lower", 0},
	{"pmu.ipc_err_max", "ratio", "lower", 0},
	{"pmu.inst_err_ppm", "ppm", "lower", 0},
	{"nvdla.self_share", "ratio", "lower", 0},
	{"nvdla.ticks", "count", "lower", 0},
	{"nvdla.standalone_ns_per_tick", "ns", "lower", 0},
	{"nvdla.mem_reads", "count", "lower", 0},
	{"nvdla.cosim_overhead_ideal", "ratio", "lower", 0},
	// runner: build, trace, checkpoint
	{"trace.gen_ms", "ms", "lower", 0},
	{"soc.build_ms", "ms", "lower", 0},
	{"soc.play_trace_ms", "ms", "lower", 0},
	{"soc.run_ms", "ms", "lower", 0},
	{"soc.build_share", "ratio", "lower", 0},
	{"soc.build_allocs", "count", "lower", 0},
	{"ckpt.save_ms", "ms", "lower", 0},
	{"ckpt.restore_ms", "ms", "lower", 0},
	{"ckpt.bytes", "count", "lower", 0},
	{"ckpt.warm_speedup", "ratio", "higher", 0},
	{"experiments.run_overhead_ms", "ms", "lower", 0},
	{"experiments.fingerprint_us", "us", "lower", 0},
	{"experiments.baseline_share", "ratio", "lower", 0},
	{"experiments.sweep_overhead_share", "ratio", "lower", 0},
	// service
	{"sweepd.submit_ms", "ms", "lower", 0},
	{"sweepd.status_ms", "ms", "lower", 0},
	{"sweepd.results_ms", "ms", "lower", 0},
	{"sweepd.polls_per_job", "count", "lower", 0},
	{"sweepd.cached_at_submit_ratio", "ratio", "higher", 0},
	{"sweepd.dedup_ratio", "ratio", "lower", 0},
	{"sweepd.worker_utilization", "ratio", "higher", 0},
	{"sweepd.service_overhead_share", "ratio", "lower", 0},
	{"sweepd.store_put_us", "us", "lower", 0},
	{"sweepd.store_get_us", "us", "lower", 0},
	{"sweepd.jobs_per_s", "1/s", "higher", 0},
	// host and harness
	{"host.gc_cycles", "count", "lower", 0},
	{"host.gc_pause_ms", "ms", "lower", 0},
	{"host.peak_rss_mb", "MB", "lower", 0},
	{"bench.trace_overhead", "ratio", "lower", 0},
	{"bench.samples", "count", "higher", 0},
	{"bench.failed_share", "ratio", "lower", 0},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// lowest is the best of repeated timings: host noise only ever adds.
func lowest(xs []float64) float64 { return quantile(xs, 0) }

// tailMean is the mean of the slowest tenth of xs (at least one value). A
// single high percentile of a few dozen ops is one op's time; the mean over
// the tail is as steady as the time the tail takes.
func tailMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := max(1, len(s)/10)
	return sum(s[len(s)-k:]) / float64(k)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio divides, reading 0 where the denominator is 0 (a metric that does
// not apply to the workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var vmHWM = regexp.MustCompile(`VmHWM:\s+(\d+) kB`)

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	m := vmHWM.FindSubmatch(b)
	if m == nil {
		return 0
	}
	kb, _ := strconv.ParseFloat(string(m[1]), 64)
	return kb / 1024
}
