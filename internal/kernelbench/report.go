package kernelbench

import (
	"encoding/json"
	"fmt"
	"sort"
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
	SelfProfOverhead float64  `json:"selfprof_overhead"`
	Results          []Result `json:"results"`
}

// ratioPairs is how many alternating pairs back each paired ratio column.
const ratioPairs = 5

// Collect runs the whole suite through testing.Benchmark and assembles the
// report. Progress lines go through logf (may be nil).
func Collect(logf func(format string, args ...any)) Report {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var rep Report
	byName := map[string]Bench{}
	for _, bench := range Suite() {
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
		rep.Results = append(rep.Results, res)
		logf("  %12.1f ns/op  %8d allocs/op  %10d B/op", res.NsPerOp, res.AllocsPerOp, res.BytesPerOp)
	}
	pairedRatio := func(slow, fast string) float64 {
		logf("measuring %s ÷ %s (paired passes) ...", slow, fast)
		return MeasurePairedRatio(byName[slow], byName[fast], ratioPairs, logf)
	}
	rep.CalendarSpeedup = pairedRatio("queue/reference", "queue/calendar")
	rep.RTLSpeedup = pairedRatio("rtl/closure", "rtl/bytecode")
	logf("measuring selfprof overhead (paired passes) ...")
	rep.SelfProfOverhead = MeasureSelfProfOverhead(ratioPairs, logf)
	return rep
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
