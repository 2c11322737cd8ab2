package kernelbench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// Result captures one benchmark's measurements for BENCH_kernel.json.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is the BENCH_kernel.json document. NsPerOp values are specific to
// the machine that produced them; the comparison below therefore checks the
// machine-independent columns (allocs/op, B/op) and the machine-relative
// CalendarSpeedup, never raw wall time.
type Report struct {
	// CalendarSpeedup is queue/reference ns/op divided by queue/calendar
	// ns/op — the event-kernel speedup, computed on one machine and
	// therefore comparable across machines. Like SelfProfOverhead it is the
	// median per-pair ratio of alternating passes (MeasurePairedRatio), not
	// the quotient of the two rows in Results.
	CalendarSpeedup float64 `json:"calendar_speedup"`
	// RTLSpeedup is rtl/closure ns/op divided by rtl/bytecode ns/op — the
	// RTL compiler's speedup over the closure reference engine, measured
	// like CalendarSpeedup.
	RTLSpeedup float64 `json:"rtl_compile_speedup"`
	// SelfProfOverhead is the whole-simulator cost of attaching the
	// self-profiler to every point of the 12-config DSE grid, as a
	// machine-relative wall-time ratio (1.00 = free), measured by
	// MeasureSelfProfOverhead's drift-cancelling paired passes rather than
	// by dividing the independent sweep/profiled and sweep/cold rows. The
	// budget is <5% (see sim.DefaultProfileEvery); Compare gates growth
	// beyond the committed baseline. queue/profiled vs queue/calendar
	// bounds the same hook from above on empty event bodies.
	SelfProfOverhead float64 `json:"selfprof_overhead"`
	// PsimSpeedup is psim/serial ns/op divided by psim/shards4 ns/op from
	// the same run — the wall-time gain of the bulk-synchronous sharded
	// engine on the multi-accelerator point, machine-relative like
	// CalendarSpeedup. It is recorded only on hosts with at least
	// PsimSpeedupMinCPUs cores (0 = not measured on this host): shards are
	// goroutines that need real cores to overlap, so the ratio is
	// meaningless on a smaller machine. When measured, Compare holds it to
	// the absolute PsimSpeedupFloor.
	PsimSpeedup float64  `json:"psim_speedup"`
	Results     []Result `json:"results"`
}

// ratioPairs is how many alternating pairs back each paired ratio column.
const ratioPairs = 5

// PsimSpeedupFloor is the acceptance floor for the sharded engine: a 4-shard
// multi-accelerator run must be at least this much faster than serial on a
// host with PsimSpeedupMinCPUs+ cores.
const PsimSpeedupFloor = 1.5

// PsimSpeedupMinCPUs is the smallest host that can meaningfully measure (and
// therefore gate) PsimSpeedup: the 4-shard row needs four runnable shard
// goroutines plus the coordinator.
const PsimSpeedupMinCPUs = 4

// Collect runs the whole suite through testing.Benchmark and assembles the
// report. Progress lines go through logf (may be nil).
func Collect(logf func(format string, args ...any)) Report {
	return CollectOnly("", logf)
}

// CollectOnly runs the suite rows whose names contain substr ("" = all) —
// the focused-gate entry behind cmd/kernelbench -only. The calendar and RTL
// speedups are measured (paired passes) when both their rows were selected;
// the selfprof overhead measurement (whole-grid paired passes) runs only on
// an unfiltered collection. Compare a filtered report against a baseline
// narrowed by RestrictBaseline, never against the full committed document.
func CollectOnly(substr string, logf func(format string, args ...any)) Report {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var rep Report
	ns := map[string]float64{}
	byName := map[string]Bench{}
	for _, bench := range Suite() {
		if substr != "" && !strings.Contains(bench.Name, substr) {
			continue
		}
		byName[bench.Name] = bench
		logf("running %s ...", bench.Name)
		r := testing.Benchmark(bench.Run)
		res := Result{
			Name:        bench.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		ns[res.Name] = res.NsPerOp
		rep.Results = append(rep.Results, res)
		logf("  %12.1f ns/op  %8d allocs/op  %10d B/op", res.NsPerOp, res.AllocsPerOp, res.BytesPerOp)
	}
	pairedRatio := func(slow, fast string) float64 {
		s, okS := byName[slow]
		f, okF := byName[fast]
		if !okS || !okF {
			return 0
		}
		logf("measuring %s ÷ %s (paired passes) ...", slow, fast)
		return MeasurePairedRatio(s, f, ratioPairs, logf)
	}
	rep.CalendarSpeedup = pairedRatio("queue/reference", "queue/calendar")
	rep.RTLSpeedup = pairedRatio("rtl/closure", "rtl/bytecode")
	if runtime.NumCPU() >= PsimSpeedupMinCPUs {
		if ser, par := ns["psim/serial"], ns["psim/shards4"]; par > 0 {
			rep.PsimSpeedup = ser / par
		}
	} else {
		logf("host has %d CPUs (< %d): psim_speedup not measured", runtime.NumCPU(), PsimSpeedupMinCPUs)
	}
	if substr == "" {
		logf("measuring selfprof overhead (paired passes) ...")
		rep.SelfProfOverhead = MeasureSelfProfOverhead(ratioPairs, logf)
	}
	return rep
}

// RestrictBaseline narrows a committed baseline to what a filtered run
// (CollectOnly) measured: rows absent from current are dropped, and each
// baseline-relative ratio survives only when its input rows were measured.
// The absolute PsimSpeedup floor is unaffected — Compare applies it to the
// current report alone.
func RestrictBaseline(baseline, current Report) Report {
	cur := map[string]bool{}
	for _, r := range current.Results {
		cur[r.Name] = true
	}
	out := Report{PsimSpeedup: baseline.PsimSpeedup}
	for _, r := range baseline.Results {
		if cur[r.Name] {
			out.Results = append(out.Results, r)
		}
	}
	if cur["queue/calendar"] && cur["queue/reference"] {
		out.CalendarSpeedup = baseline.CalendarSpeedup
	}
	if cur["rtl/closure"] && cur["rtl/bytecode"] {
		out.RTLSpeedup = baseline.RTLSpeedup
	}
	if current.SelfProfOverhead > 0 {
		out.SelfProfOverhead = baseline.SelfProfOverhead
	}
	return out
}

// Marshal renders the report as committed-file JSON.
func (rep Report) Marshal() ([]byte, error) {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// ParseReport reads a BENCH_kernel.json document.
func ParseReport(data []byte) (Report, error) {
	var rep Report
	err := json.Unmarshal(data, &rep)
	return rep, err
}

// Compare checks the current report against a committed baseline and
// returns one message per regression beyond threshold (e.g. 0.10 = 10%).
//
// Compared columns:
//   - allocs/op and B/op per benchmark: machine-independent, must not grow
//     by more than threshold (plus a small absolute floor so a 0→1 alloc
//     blip on a tiny benchmark doesn't fail spuriously);
//   - CalendarSpeedup and RTLSpeedup: same-run ratios, must not fall more
//     than threshold below baseline;
//   - SelfProfOverhead: a same-run ratio where smaller is better, must not
//     climb more than threshold above baseline.
//
// Raw ns/op is informational only — a CI runner is not the machine the
// baseline was measured on.
func Compare(current, baseline Report, threshold float64) []string {
	var problems []string
	base := map[string]Result{}
	for _, r := range baseline.Results {
		base[r.Name] = r
	}
	names := make([]string, 0, len(current.Results))
	for _, r := range current.Results {
		names = append(names, r.Name)
	}
	sort.Strings(names)
	cur := map[string]Result{}
	for _, r := range current.Results {
		cur[r.Name] = r
	}
	for _, name := range names {
		c := cur[name]
		b, ok := base[name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: missing from baseline (regenerate BENCH_kernel.json)", name))
			continue
		}
		if limit := grownLimit(b.AllocsPerOp, threshold); c.AllocsPerOp > limit {
			problems = append(problems, fmt.Sprintf("%s: allocs/op %d exceeds baseline %d (+%d%% limit %d)",
				name, c.AllocsPerOp, b.AllocsPerOp, int(threshold*100), limit))
		}
		if limit := grownLimit(b.BytesPerOp, threshold); c.BytesPerOp > limit {
			problems = append(problems, fmt.Sprintf("%s: B/op %d exceeds baseline %d (+%d%% limit %d)",
				name, c.BytesPerOp, b.BytesPerOp, int(threshold*100), limit))
		}
	}
	for _, r := range baseline.Results {
		if _, ok := cur[r.Name]; !ok {
			problems = append(problems, fmt.Sprintf("%s: in baseline but not measured", r.Name))
		}
	}
	if baseline.CalendarSpeedup > 0 {
		floor := baseline.CalendarSpeedup * (1 - threshold)
		if current.CalendarSpeedup < floor {
			problems = append(problems, fmt.Sprintf(
				"calendar speedup %.2fx fell below baseline %.2fx - %d%% = %.2fx",
				current.CalendarSpeedup, baseline.CalendarSpeedup, int(threshold*100), floor))
		}
	}
	if baseline.RTLSpeedup > 0 {
		floor := baseline.RTLSpeedup * (1 - threshold)
		if current.RTLSpeedup < floor {
			problems = append(problems, fmt.Sprintf(
				"rtl compile speedup %.2fx fell below baseline %.2fx - %d%% = %.2fx",
				current.RTLSpeedup, baseline.RTLSpeedup, int(threshold*100), floor))
		}
	}
	// The psim gate is an absolute floor, not baseline-relative: the
	// acceptance criterion is ">= 1.5x at 4 shards", independent of what an
	// earlier baseline measured. A current report with PsimSpeedup == 0 ran
	// on a host below PsimSpeedupMinCPUs cores and is exempt — the column is
	// machine-guarded, like skipping raw ns/op.
	if current.PsimSpeedup > 0 && current.PsimSpeedup < PsimSpeedupFloor {
		problems = append(problems, fmt.Sprintf(
			"psim speedup %.2fx (serial/shards4) fell below the %.2fx floor",
			current.PsimSpeedup, PsimSpeedupFloor))
	}
	if baseline.SelfProfOverhead > 0 {
		// Even with paired-pass drift cancellation the sweep ratio carries a
		// few percent of host noise, so the ceiling never drops below
		// 1 + 2*threshold: the gate exists to catch the dispatch hook
		// becoming structurally more expensive, not single-percent wobble.
		ceiling := baseline.SelfProfOverhead * (1 + threshold)
		if floor := 1 + 2*threshold; ceiling < floor {
			ceiling = floor
		}
		if current.SelfProfOverhead > ceiling {
			problems = append(problems, fmt.Sprintf(
				"selfprof overhead %.3fx climbed above limit %.3fx (baseline %.3fx, threshold %d%%)",
				current.SelfProfOverhead, ceiling, baseline.SelfProfOverhead, int(threshold*100)))
		}
	}
	return problems
}

// grownLimit is the largest acceptable value for a counter with the given
// baseline: baseline*(1+threshold), but never tighter than baseline+4 so
// near-zero baselines tolerate measurement noise.
func grownLimit(baseline int64, threshold float64) int64 {
	limit := int64(float64(baseline) * (1 + threshold))
	if limit < baseline+4 {
		limit = baseline + 4
	}
	return limit
}
