// Top-level benchmark harness: one benchmark per table and figure of the
// paper's evaluation (§6), each delegating to internal/experiments so a
// benchmark run regenerates the same data as the cmd/ tools. Custom metrics
// report the paper's headline quantities (normalised performance, overhead
// ratios) alongside the usual ns/op.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package gem5rtl

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/sim"
)

// benchDSE keeps per-iteration cost low while preserving shapes.
var benchDSE = experiments.DSEParams{Scale: 32, Limit: 8 * sim.Second}

// BenchmarkFigure5_PMUvsGem5 measures a full PMU-instrumented sort run with
// interval sampling, reporting how closely the PMU tracks gem5 statistics.
func BenchmarkFigure5_PMUvsGem5(b *testing.B) {
	p := experiments.Fig5Params{N: 60, SleepUs: 50, IntervalCycles: 5000}
	var maxDiff, samples float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure5Ctx(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		samples = float64(len(res.Samples))
		maxDiff = 0
		for _, s := range res.Samples {
			d := s.PMUIPC - s.Gem5IPC
			if d < 0 {
				d = -d
			}
			if d > maxDiff {
				maxDiff = d
			}
		}
	}
	b.ReportMetric(samples, "intervals")
	b.ReportMetric(maxDiff, "maxIPCdelta")
}

// BenchmarkTable2 measures the three Table 2 configurations (gem5,
// gem5+PMU, gem5+PMU+waveform) on one sort size; comparing the ns/op across
// sub-benchmarks yields the overhead column.
func BenchmarkTable2(b *testing.B) {
	for _, cfg := range experiments.Table2Configs() {
		cfg := cfg
		b.Run(cfg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cells, err := experiments.RunTable2Config(cfg, 100, 50)
				if err != nil {
					b.Fatal(err)
				}
				_ = cells
			}
		})
	}
}

// dsePoint runs a single DSE cell and reports its normalised performance.
func dsePoint(b *testing.B, workload string, n int, mem string, inflight int) {
	b.Helper()
	ideal, err := experiments.Run(context.Background(), benchDSE.Spec(workload, n, "ideal", inflight))
	if err != nil {
		b.Fatal(err)
	}
	var t sim.Tick
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err = experiments.Run(context.Background(), benchDSE.Spec(workload, n, mem, inflight))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ideal)/float64(t), "perf_vs_ideal")
}

// BenchmarkFigure6_GoogleNet regenerates representative cells of Figure 6:
// the GoogleNet DSE across accelerator counts, memory technologies and
// in-flight caps (gem5rtl dse prints the complete grid).
func BenchmarkFigure6_GoogleNet(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		for _, mem := range []string{"DDR4-1ch", "DDR4-4ch", "HBM"} {
			for _, inflight := range []int{1, 64, 240} {
				name := fmt.Sprintf("n%d/%s/if%d", n, mem, inflight)
				b.Run(name, func(b *testing.B) { dsePoint(b, "googlenet", n, mem, inflight) })
			}
		}
	}
}

// BenchmarkFigure7_Sanity3 regenerates representative cells of Figure 7:
// the memory-intensive sanity3 DSE.
func BenchmarkFigure7_Sanity3(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		for _, mem := range []string{"DDR4-1ch", "DDR4-4ch", "HBM"} {
			for _, inflight := range []int{1, 64, 240} {
				name := fmt.Sprintf("n%d/%s/if%d", n, mem, inflight)
				b.Run(name, func(b *testing.B) { dsePoint(b, "sanity3", n, mem, inflight) })
			}
		}
	}
}

// BenchmarkSweep measures one fixed DSE sub-grid (12 points + 4 shared
// ideal baselines) through the experiment runner, sequentially and with one
// worker per host core. The workers=N/workers=1 ns/op ratio is the parallel
// sweep speedup; results are tick-identical across worker counts (see
// TestSweepParallelMatchesSequential).
func BenchmarkSweep(b *testing.B) {
	var specs []experiments.RunSpec
	for _, inflight := range []int{1, 16, 64, 240} {
		for _, mem := range []string{"DDR4-1ch", "DDR4-4ch", "HBM"} {
			specs = append(specs, benchDSE.Spec("sanity3", 1, mem, inflight))
		}
	}
	sweep := func(b *testing.B, r experiments.Runner) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			results, err := r.Sweep(context.Background(), specs)
			if err != nil {
				b.Fatal(err)
			}
			for _, res := range results {
				if res.Err != nil {
					b.Fatalf("%v: %v", res.Spec, res.Err)
				}
			}
		}
		b.ReportMetric(float64(len(specs)), "points")
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sweep(b, experiments.Runner{Workers: workers})
		})
	}
}

// BenchmarkTable3 measures the three Table 3 configurations per workload;
// the overhead columns are the ns/op ratios against standalone-rtl.
func BenchmarkTable3(b *testing.B) {
	for _, wl := range []string{"sanity3", "googlenet"} {
		wl := wl
		b.Run("standalone-rtl/"+wl, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunStandaloneOnce(wl, benchDSE); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("gem5+NVDLA+perfect-memory/"+wl, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Run(context.Background(), benchDSE.Spec(wl, 1, "ideal", 240)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("gem5+NVDLA+DDR4/"+wl, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Run(context.Background(), benchDSE.Spec(wl, 1, "DDR4-4ch", 240)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
