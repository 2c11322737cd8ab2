package experiments

import (
	"context"
	"fmt"
	"time"

	"gem5rtl/internal/sim"
	"gem5rtl/internal/trace"
)

// InflightSweep is the x-axis of Figures 6 and 7.
var InflightSweep = []int{1, 4, 8, 16, 32, 64, 128, 240}

// NVDLACounts is the per-subfigure accelerator count.
var NVDLACounts = []int{1, 2, 4}

// DSEPoint is one cell of the design-space exploration.
type DSEPoint struct {
	Workload string
	NVDLAs   int
	Memory   string // includes "ideal" for the baseline
	Inflight int
	// Ticks is the completion time of the slowest accelerator.
	Ticks sim.Tick
	// Perf is Ticks(ideal at same inflight & count) / Ticks — the figures'
	// "performance normalised to ideal memory".
	Perf float64
}

// DSEParams scales the experiment.
type DSEParams struct {
	// Scale divides the trace footprints (1 = paper-sized synthetic layers;
	// larger values shrink runs proportionally — ratios are preserved since
	// baseline and subject scale together).
	Scale int
	// Limit bounds one run's simulated time.
	Limit sim.Tick
}

// DefaultDSEParams returns the standard scaled configuration.
func DefaultDSEParams() DSEParams {
	return DSEParams{Scale: 8, Limit: 4 * sim.Second}
}

// DSESpecs builds the full Figure 6/7 grid for workload in output order:
// for each accelerator count and in-flight cap, the ideal baseline followed
// by each memory technology.
func DSESpecs(workload string, p DSEParams) []RunSpec {
	var specs []RunSpec
	for _, n := range NVDLACounts {
		for _, inflight := range InflightSweep {
			specs = append(specs, p.Spec(workload, n, "ideal", inflight))
			for _, tech := range memTechs() {
				specs = append(specs, p.Spec(workload, n, tech, inflight))
			}
		}
	}
	return specs
}

// DSEFigure reproduces Figure 6 (workload "googlenet") or Figure 7
// (workload "sanity3"): the full sweep over accelerator counts, memory
// technologies and in-flight caps, normalised per (count, inflight) to the
// ideal-memory run. Points come back in grid order regardless of the
// runner's worker count, and each ideal baseline is simulated exactly once
// and shared by the five technology points it normalises.
func (r Runner) DSEFigure(ctx context.Context, workload string, p DSEParams) ([]DSEPoint, error) {
	results, err := r.Sweep(ctx, DSESpecs(workload, p))
	if err != nil {
		return nil, err
	}
	points := make([]DSEPoint, 0, len(results))
	for _, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("%v: %w", res.Spec, res.Err)
		}
		points = append(points, DSEPoint{
			Workload: res.Spec.Workload, NVDLAs: res.Spec.NVDLAs,
			Memory: res.Spec.Memory, Inflight: res.Spec.Inflight,
			Ticks: res.Ticks, Perf: res.Perf,
		})
	}
	return points, nil
}

func memTechs() []string {
	return []string{"DDR4-1ch", "DDR4-2ch", "DDR4-4ch", "GDDR5", "HBM"}
}

// Table3Row is one configuration of the NVDLA simulation-time study.
type Table3Row struct {
	Config   string
	Workload string
	HostTime time.Duration
	// Overhead is normalised to the standalone RTL-model run.
	Overhead float64
	// The work behind HostTime, in counts that do not depend on the host:
	// cycles the model was ticked on the standalone row, events the queue
	// dispatched on a full-system row.
	ModelTicks, Events uint64
}

// Table3 reproduces Table 3: host wall-clock of (a) the standalone
// accelerator model with an ideal zero-latency memory loop (the paper's
// standalone Verilator run with NVIDIA's nvdla.cpp wrapper), (b) the
// full-system simulation with perfect memory, and (c) with DDR4-4ch —
// each running sanity3 and googlenet once. Because the rows are host-time
// measurements, run with Workers = 1 when the absolute overheads matter;
// concurrent workers share host cores and inflate each other's times.
func (r Runner) Table3(ctx context.Context, p DSEParams) ([]Table3Row, error) {
	var rows []Table3Row
	for _, wl := range []string{"sanity3", "googlenet"} {
		standalone, ticks, err := runStandalone(ctx, wl, p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{Config: "standalone-rtl", Workload: wl,
			HostTime: standalone, Overhead: 1.0, ModelTicks: ticks})
		results, err := r.Sweep(ctx, []RunSpec{
			p.Spec(wl, 1, "ideal", 240),
			p.Spec(wl, 1, "DDR4-4ch", 240),
		})
		if err != nil {
			return nil, err
		}
		for _, res := range results {
			if res.Err != nil {
				return nil, fmt.Errorf("%v: %w", res.Spec, res.Err)
			}
			name := "gem5+NVDLA+perfect-memory"
			if !res.Spec.IsIdeal() {
				name = "gem5+NVDLA+DDR4"
			}
			rows = append(rows, Table3Row{Config: name, Workload: wl,
				HostTime: res.HostTime,
				Overhead: float64(res.HostTime) / float64(standalone),
				Events:   res.Events})
		}
	}
	return rows, nil
}

// RunStandaloneOnce is the exported single-run entry for benchmarks.
func RunStandaloneOnce(workload string, p DSEParams) (time.Duration, error) {
	d, _, err := runStandalone(context.Background(), workload, p)
	return d, err
}

// runStandalone ticks the accelerator wrapper directly against a
// zero-latency memory, like running the Verilated model with its bundled
// testbench wrapper: no SoC, no trace-into-memory load phase.
func runStandalone(ctx context.Context, workload string, p DSEParams) (time.Duration, uint64, error) {
	tr, err := trace.Scaled(workload, 0, p.Scale)
	if err != nil {
		return 0, 0, err
	}
	return trace.RunStandaloneTicks(ctx, tr)
}
