package experiments

import (
	"context"
	"testing"

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

// TestTable2OverheadOrdering asserts Table 2's orderings on the work each
// configuration does, which is deterministic: the PMU's clock and AXI events
// come on top of the same program's, and the waveform on top of the same
// model cycles. Host time is what the work costs on one machine on one day;
// the bench ledger measures it, in pairs (cosim_overhead @ pmu-cosim and
// pmu-waveform).
func TestTable2OverheadOrdering(t *testing.T) {
	cells, err := Runner{Workers: 1}.Table2(context.Background(), []int{80}, 20)
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]Table2Cell{}
	for _, c := range cells {
		by[c.Config] = c
	}
	base, pmu, wave := by["gem5"], by["gem5+PMU"], by["gem5+PMU+waveform"]
	t.Logf("events: gem5 %d, +PMU %d, +waveform %d; model ticks %d; VCD bytes %d",
		base.Events, pmu.Events, wave.Events, pmu.ModelTicks, wave.VCDBytes)
	if base.Overhead != 1.0 {
		t.Fatalf("baseline overhead %.2f", base.Overhead)
	}
	if base.Committed == 0 || pmu.Committed != base.Committed || wave.Committed != base.Committed {
		t.Fatalf("committed instructions differ: gem5 %d, +PMU %d, +waveform %d",
			base.Committed, pmu.Committed, wave.Committed)
	}
	if base.ModelTicks != 0 || pmu.ModelTicks == 0 || wave.ModelTicks != pmu.ModelTicks {
		t.Fatalf("model ticks: gem5 %d, +PMU %d, +waveform %d", base.ModelTicks, pmu.ModelTicks, wave.ModelTicks)
	}
	if pmu.Events <= base.Events {
		t.Fatalf("+PMU dispatched %d events, not above gem5's %d", pmu.Events, base.Events)
	}
	if wave.Events < pmu.Events {
		t.Fatalf("+waveform dispatched %d events, below +PMU's %d", wave.Events, pmu.Events)
	}
	if base.VCDBytes != 0 || pmu.VCDBytes != 0 || wave.VCDBytes == 0 {
		t.Fatalf("VCD bytes: gem5 %d, +PMU %d, +waveform %d", base.VCDBytes, pmu.VCDBytes, wave.VCDBytes)
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
// least the standalone model's run, and DRAM at least perfect memory — on
// work done: the standalone run is its model ticks and nothing else, a
// full-system run dispatches at least one event per model tick plus the
// memory system's. The host-time form is cosim_overhead @ nvdla-cosim in the
// bench ledger.
func TestTable3Shapes(t *testing.T) {
	rows, err := Runner{Workers: 1}.Table3(context.Background(), DSEParams{Scale: 64, Limit: 4 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	type cell struct{ config, workload string }
	by := map[cell]Table3Row{}
	for _, r := range rows {
		by[cell{r.Config, r.Workload}] = r
	}
	if len(by) != 6 {
		t.Fatalf("%d distinct cells, want 6", len(by))
	}
	for _, wl := range []string{"sanity3", "googlenet"} {
		standalone := by[cell{"standalone-rtl", wl}]
		ideal := by[cell{"gem5+NVDLA+perfect-memory", wl}]
		ddr4 := by[cell{"gem5+NVDLA+DDR4", wl}]
		t.Logf("%s: standalone %d model ticks; events: perfect memory %d, DDR4 %d",
			wl, standalone.ModelTicks, ideal.Events, ddr4.Events)
		if standalone.Overhead != 1.0 {
			t.Fatalf("%s: standalone overhead %.2f", wl, standalone.Overhead)
		}
		if standalone.ModelTicks == 0 {
			t.Fatalf("%s: standalone run ticked the model 0 times", wl)
		}
		if ideal.Events <= standalone.ModelTicks {
			t.Fatalf("%s: perfect-memory run dispatched %d events, not above the standalone run's %d model ticks",
				wl, ideal.Events, standalone.ModelTicks)
		}
		if ddr4.Events < ideal.Events {
			t.Fatalf("%s: DDR4 run dispatched %d events, below perfect memory's %d", wl, ddr4.Events, ideal.Events)
		}
		// Events above is the machine's count. What the host dispatches is
		// less: most accelerator cycles lie between two inputs and are
		// applied in closed form (DESIGN.md §7.4). Checked at scale 8: at
		// scale 64 a run is some 1 700 cycles, a tenth of them the start-up
		// ticks that program the layer and fill the prefetch window.
		for _, mem := range []string{"ideal", "DDR4-4ch"} {
			requireMostlyElided(t, DSEParams{Scale: 8, Limit: 4 * sim.Second}.Spec(wl, 1, mem, 240))
		}
	}
}
