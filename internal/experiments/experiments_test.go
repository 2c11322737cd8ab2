package experiments

import (
	"context"
	"testing"
	"time"

	"gem5rtl/internal/sim"
)

// quickDSE shrinks the sweep for CI-speed integration tests.
func quickDSE() DSEParams { return DSEParams{Scale: 64, Limit: 4 * sim.Second} }

func TestFigure5ProducesPhases(t *testing.T) {
	p := DefaultFig5Params()
	p.N = 60 // small but with visible phases
	p.SleepUs = 60
	p.IntervalCycles = 5000
	res, err := RunFigure5Ctx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) < 8 {
		t.Fatalf("only %d interval samples", len(res.Samples))
	}
	// PMU and gem5 must agree closely on IPC in every window (the paper
	// reports only negligible reset-loss discrepancies).
	var sleepWindows int
	for _, smp := range res.Samples {
		diff := smp.PMUIPC - smp.Gem5IPC
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.1 {
			t.Fatalf("PMU %.3f vs gem5 %.3f IPC at %.3f ms", smp.PMUIPC, smp.Gem5IPC, smp.TimeMs)
		}
		if smp.PMUIPC < 0.05 {
			sleepWindows++
		}
	}
	// The three 60 us sleeps must appear as near-zero-IPC windows.
	if sleepWindows < 3 {
		t.Fatalf("only %d near-zero IPC windows; sleeps not visible", sleepWindows)
	}
	// Total committed instructions: PMU within 1% of gem5 (reset losses).
	pmuT, gemT := float64(res.PMUTotalInsts), float64(res.Gem5TotalInsts)
	if pmuT > gemT || pmuT < 0.97*gemT {
		t.Fatalf("PMU total %v vs gem5 total %v", res.PMUTotalInsts, res.Gem5TotalInsts)
	}
}

// TestTable2OverheadOrdering asserts Table 2's orderings on host time, each
// exactly once. A cell is a wall-clock sample of some tens of milliseconds
// taken while other packages' tests share the host, and that noise only ever
// adds time, so every cell is measured three times and its fastest sample is
// the one compared.
func TestTable2OverheadOrdering(t *testing.T) {
	best := map[string]time.Duration{}
	for i := 0; i < 3; i++ {
		cells, err := Runner{Workers: 1}.Table2(context.Background(), []int{80}, 20)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if c.Config == "gem5" && c.Overhead != 1.0 {
				t.Fatalf("baseline overhead %.2f", c.Overhead)
			}
			if b, ok := best[c.Config]; !ok || c.HostTime < b {
				best[c.Config] = c.HostTime
			}
		}
	}
	base := best["gem5"]
	if base <= 0 {
		t.Fatalf("baseline host time %v", base)
	}
	pmu := float64(best["gem5+PMU"]) / float64(base)
	wave := float64(best["gem5+PMU+waveform"]) / float64(base)
	if pmu < 1.0 {
		t.Fatalf("PMU overhead %.2f below baseline", pmu)
	}
	if wave <= pmu {
		t.Fatalf("waveform overhead %.2f not above PMU %.2f", wave, pmu)
	}
}

func TestDSESinglePointShapes(t *testing.T) {
	p := quickDSE()
	// Latency-bound at 1 in-flight: DDR4-1ch far from ideal.
	ideal1, err := Run(context.Background(), p.Spec("sanity3", 1, "ideal", 1))
	if err != nil {
		t.Fatal(err)
	}
	ddr1, err := Run(context.Background(), p.Spec("sanity3", 1, "DDR4-1ch", 1))
	if err != nil {
		t.Fatal(err)
	}
	if perf := float64(ideal1) / float64(ddr1); perf > 0.5 {
		t.Fatalf("1-inflight DDR4-1ch perf %.2f, want << 1", perf)
	}
	// At 64 in-flight, HBM approaches ideal for a single accelerator.
	ideal64, err := Run(context.Background(), p.Spec("sanity3", 1, "ideal", 64))
	if err != nil {
		t.Fatal(err)
	}
	hbm64, err := Run(context.Background(), p.Spec("sanity3", 1, "HBM", 64))
	if err != nil {
		t.Fatal(err)
	}
	if perf := float64(ideal64) / float64(hbm64); perf < 0.6 {
		t.Fatalf("64-inflight HBM perf %.2f, want near 1", perf)
	}
	// And HBM beats DDR4-1ch.
	ddr64, err := Run(context.Background(), p.Spec("sanity3", 1, "DDR4-1ch", 64))
	if err != nil {
		t.Fatal(err)
	}
	if hbm64 >= ddr64 {
		t.Fatalf("HBM (%d) not faster than DDR4-1ch (%d)", hbm64, ddr64)
	}
}

func TestDSEMoreAcceleratorsMoreContention(t *testing.T) {
	p := quickDSE()
	perf := func(n int) float64 {
		ideal, err := Run(context.Background(), p.Spec("sanity3", n, "ideal", 64))
		if err != nil {
			t.Fatal(err)
		}
		ddr, err := Run(context.Background(), p.Spec("sanity3", n, "DDR4-1ch", 64))
		if err != nil {
			t.Fatal(err)
		}
		return float64(ideal) / float64(ddr)
	}
	p1, p4 := perf(1), perf(4)
	if p4 >= p1 {
		t.Fatalf("4-DLA perf %.3f not below 1-DLA perf %.3f on DDR4-1ch", p4, p1)
	}
}

// TestTable3Shapes asserts the Table 3 ordering — a full-system run costs at
// least the standalone model's run — once per workload and configuration. A
// cell is a 2-3 ms wall-clock measurement and host noise only adds time, so
// each is taken three times and the fastest samples are compared (as
// TestTable2OverheadOrdering does).
func TestTable3Shapes(t *testing.T) {
	type cell struct{ config, workload string }
	best := map[cell]time.Duration{}
	for i := 0; i < 3; i++ {
		rows, err := Runner{Workers: 1}.Table3(context.Background(), DSEParams{Scale: 64, Limit: 4 * sim.Second})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 6 {
			t.Fatalf("rows = %d, want 6", len(rows))
		}
		for _, r := range rows {
			if r.Config == "standalone-rtl" && r.Overhead != 1.0 {
				t.Fatalf("standalone overhead %.2f", r.Overhead)
			}
			c := cell{r.Config, r.Workload}
			if b, ok := best[c]; !ok || r.HostTime < b {
				best[c] = r.HostTime
			}
		}
	}
	if len(best) != 6 {
		t.Fatalf("%d distinct cells, want 6", len(best))
	}
	for c, host := range best {
		standalone := best[cell{"standalone-rtl", c.workload}]
		if standalone <= 0 {
			t.Fatalf("standalone host time %v for %s", standalone, c.workload)
		}
		if overhead := float64(host) / float64(standalone); overhead < 1.0 {
			t.Fatalf("%s/%s overhead %.2f below standalone", c.config, c.workload, overhead)
		}
	}
}
