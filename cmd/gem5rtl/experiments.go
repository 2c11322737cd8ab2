package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"gem5rtl/internal/cli"
	"gem5rtl/internal/experiments"
	"gem5rtl/internal/sim"
)

// fig5 reproduces the PMU use case (§6.1): the three-sort benchmark with the
// PMU RTL model attached, printed as the Figure 5 interval series.
func fig5() (*flag.FlagSet, func()) {
	fs := flag.NewFlagSet("gem5rtl fig5", flag.ExitOnError)
	n := fs.Int("n", 250, "selection/bubble sort array size (quicksort gets 10x)")
	sleepUs := sleepFlag(fs)
	interval := fs.Int("interval", 10000, "PMU interrupt period in PMU cycles")
	fl := cli.Register(fs, cli.Host)
	return fs, func() {
		ctx := fl.Setup()
		fl.StartMonitor()
		res, err := fl.Runner(1).Figure5(ctx, experiments.Fig5Params{
			N: *n, SleepUs: *sleepUs, IntervalCycles: *interval})
		if err != nil {
			cli.Fatal(err)
		}
		fl.ExportProfile()
		fmt.Println("# Figure 5: IPC/MPKI over time, PMU counters vs gem5 statistics")
		fmt.Println("# time_ms  pmu_ipc  gem5_ipc  pmu_mpki  gem5_mpki")
		for _, s := range res.Samples {
			fmt.Printf("%8.4f  %7.3f  %8.3f  %8.2f  %9.2f\n",
				s.TimeMs, s.PMUIPC, s.Gem5IPC, s.PMUMPKI, s.Gem5MPKI)
		}
		fmt.Printf("# totals: PMU committed=%d gem5 committed=%d (loss %.3f%%)\n",
			res.PMUTotalInsts, res.Gem5TotalInsts,
			100*(1-float64(res.PMUTotalInsts)/float64(res.Gem5TotalInsts)))
		fmt.Printf("# simulated %v ticks in %v host time\n", res.SimTicks, res.HostTime)
	}
}

// sleepFlag defines -sleep-us, the sort benchmark's inter-phase sleep, which
// Figure 5 and Table 2 share.
func sleepFlag(fs *flag.FlagSet) *int {
	return fs.Int("sleep-us", 100, "inter-phase sleep of the sort benchmark in microseconds")
}

// table2 reproduces Table 2: host time of the sort benchmark with and without
// the PMU model and its waveform. -parallel defaults to 1 because the table
// reports host wall-clock times, which concurrent workers inflate.
func table2() (*flag.FlagSet, func()) {
	fs := flag.NewFlagSet("gem5rtl table2", flag.ExitOnError)
	sleepUs := sleepFlag(fs)
	parallel := cli.Parallel(fs, 1)
	fl := cli.Register(fs, cli.Host)
	return fs, func() {
		ctx := fl.Setup()
		cells, err := fl.Runner(*parallel).Table2(ctx, experiments.DefaultTable2Sizes(), *sleepUs)
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Println("# Table 2: host time normalised to gem5 without PMU")
		fmt.Println("# closed-form: PMU model cycles applied without a tick")
		fmt.Printf("%-22s %8s %10s %10s %12s\n", "config", "size", "host", "overhead", "closed-form")
		for _, c := range cells {
			fmt.Printf("%-22s %8d %10s %10.2f %12d\n", c.Config, c.Size,
				c.HostTime.Round(time.Millisecond), c.Overhead, c.Elided)
		}
		fl.ExportProfile()
	}
}

// table3 reproduces Table 3: the NVDLA model standalone vs in full system on
// perfect and on DDR4-4ch memory. -parallel defaults to 1 as for Table 2.
func table3() (*flag.FlagSet, func()) {
	fs := flag.NewFlagSet("gem5rtl table3", flag.ExitOnError)
	scale := fs.Int("scale", 8, "NVDLA trace footprint divisor")
	parallel := cli.Parallel(fs, 1)
	fl := cli.Register(fs, cli.Host)
	return fs, func() {
		ctx := fl.Setup()
		rows, err := fl.Runner(*parallel).Table3(ctx, experiments.DSEParams{
			Scale: *scale, Limit: 8 * sim.Second})
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Println("# Table 3: host time normalised to the standalone RTL-model run")
		fmt.Printf("%-28s %-10s %12s %10s\n", "config", "workload", "host", "overhead")
		for _, r := range rows {
			fmt.Printf("%-28s %-10s %12s %10.2f\n", r.Config, r.Workload,
				r.HostTime.Round(100*time.Microsecond), r.Overhead)
		}
		fl.ExportProfile()
	}
}

// dse reproduces the NVDLA design-space exploration of §6.2 (Figures 6 and
// 7): in-flight cap × memory technology × accelerator count, performance
// normalised to an ideal 1-cycle memory. The points run on -parallel workers;
// the printed tables are byte-identical for any count.
func dse() (*flag.FlagSet, func()) {
	fs := flag.NewFlagSet("gem5rtl dse", flag.ExitOnError)
	workload := fs.String("workload", "googlenet", "googlenet (Figure 6) or sanity3 (Figure 7)")
	scale := fs.Int("scale", 8, "trace footprint divisor (1 = full synthetic layers)")
	verbose := fs.Bool("v", false, "print per-point progress and totals to stderr")
	parallel := cli.Parallel(fs, runtime.NumCPU())
	fl := cli.Register(fs, cli.Host|cli.Watchdog|cli.CheckPorts)
	return fs, func() {
		ctx := fl.Setup()
		p := experiments.DSEParams{Scale: *scale, Limit: 8 * sim.Second}
		// Shared spec validation: a bad -workload/-scale fails here with the
		// same message the sweep service's submit endpoint would produce.
		if err := p.Spec(*workload, 1, "ideal", 1).Validate(); err != nil {
			cli.Exit(2, err)
		}
		r := fl.Runner(*parallel)
		if *verbose {
			r.Report = func(s string) { fmt.Fprintln(os.Stderr, s) }
		}
		start := time.Now()
		points, err := r.DSEFigure(ctx, *workload, p)
		if err != nil {
			cli.Fatal(err)
		}
		fl.ExportProfile()
		if *verbose {
			fmt.Fprintf(os.Stderr, "# %d points in %s host time (%d workers)\n",
				len(points), time.Since(start).Round(time.Millisecond), *parallel)
		}

		fig := "Figure 6"
		if *workload == "sanity3" {
			fig = "Figure 7"
		}
		fmt.Printf("# %s: %s, performance normalised to ideal 1-cycle memory\n", fig, *workload)
		for _, n := range experiments.NVDLACounts {
			fmt.Printf("\n## %d NVDLA accelerator(s)\n", n)
			fmt.Printf("%-10s", "mem\\inflight")
			for _, inf := range experiments.InflightSweep {
				fmt.Printf("  %6d", inf)
			}
			fmt.Println()
			for _, tech := range []string{"DDR4-1ch", "DDR4-2ch", "DDR4-4ch", "GDDR5", "HBM"} {
				fmt.Printf("%-10s", tech)
				for _, inf := range experiments.InflightSweep {
					for _, pt := range points {
						if pt.NVDLAs == n && pt.Memory == tech && pt.Inflight == inf {
							fmt.Printf("  %6.3f", pt.Perf)
						}
					}
				}
				fmt.Println()
			}
		}
	}
}

// faultcamp runs a seeded fault-injection campaign: single bit flips,
// lost/replayed/delayed transfers and DRAM upsets against the NVDLA memory
// path, or RTL state flips against the PMU model. Every injection is
// classified as masked, detected, corrupted or hung (hung runs are reaped by
// the liveness watchdog), and the same seed always prints the same table.
func faultcamp() (*flag.FlagSet, func()) {
	fs := flag.NewFlagSet("gem5rtl faultcamp", flag.ExitOnError)
	target := fs.String("target", "nvdla", "campaign target: nvdla (memory-path faults) or pmu (RTL state flips)")
	workload := fs.String("workload", "sanity3", "NVDLA trace: sanity3 or googlenet")
	scale := fs.Int("scale", 64, "NVDLA trace footprint divisor")
	nvdlas := fs.Int("nvdla", 1, "number of NVDLA accelerator instances")
	memName := fs.String("mem", "ideal", "memory: ideal, DDR4-1ch/2ch/4ch, GDDR5, HBM")
	inflight := fs.Int("inflight", 64, "per-NVDLA max in-flight memory requests")
	seed := fs.Uint64("seed", 1, "campaign seed; same seed, same classification table")
	count := fs.Int("n", 32, "number of fault injections")
	limitMs := fs.Int("limit-ms", 2000, "per-run simulated time limit in milliseconds")
	verbose := fs.Bool("v", false, "print watchdog/outcome details per injection")
	parallel := cli.Parallel(fs, runtime.NumCPU())
	fl := cli.Register(fs, cli.Host|cli.CheckPorts)
	return fs, func() {
		ctx := fl.Setup()
		r := fl.Runner(*parallel)
		limit := sim.Tick(*limitMs) * sim.Millisecond
		start := time.Now()
		var results []experiments.FaultResult
		var err error
		switch *target {
		case "nvdla":
			results, err = r.FaultCampaign(ctx, experiments.FaultCampaign{
				Spec: experiments.RunSpec{
					Workload: *workload, NVDLAs: *nvdlas, Memory: *memName,
					Inflight: *inflight, Scale: *scale, Limit: limit,
				},
				Seed: *seed, Count: *count,
			})
		case "pmu":
			results, err = r.PMUFaultCampaign(ctx, experiments.PMUCampaign{
				Seed: *seed, Count: *count, Limit: limit})
		default:
			err = fmt.Errorf("unknown target %q (want nvdla or pmu)", *target)
		}
		if err != nil {
			cli.Fatal(err)
		}

		fmt.Printf("# %s fault campaign: seed=%d n=%d\n", *target, *seed, *count)
		for _, res := range results {
			line := fmt.Sprintf("%3d  %-44s %s", res.Index, res.Fault, res.Outcome)
			if *verbose && res.Detail != "" {
				line += "  (" + res.Detail + ")"
			}
			fmt.Println(line)
		}
		fmt.Println()
		fmt.Print(experiments.FormatFaultTable(results))
		fl.ExportProfile()
		if *verbose {
			fmt.Fprintf(os.Stderr, "# %d injections in %s host time (%d workers)\n",
				len(results), time.Since(start).Round(time.Millisecond), *parallel)
		}
	}
}
