// Command nvdla-dse reproduces the NVDLA design-space exploration of §6.2
// (Figures 6 and 7): it sweeps the maximum in-flight request cap, the memory
// technology, and the number of accelerator instances, printing performance
// normalised to an ideal 1-cycle main memory in the same layout as the
// paper's figures. The sweep points are independent simulations and are
// spread across -parallel worker goroutines; the printed tables are
// byte-identical for any worker count.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/guard"
	"gem5rtl/internal/obs"
	"gem5rtl/internal/port"
	"gem5rtl/internal/prof"
	"gem5rtl/internal/sim"
)

func main() {
	workload := flag.String("workload", "googlenet", "googlenet (Figure 6) or sanity3 (Figure 7)")
	scale := flag.Int("scale", 8, "trace footprint divisor (1 = full synthetic layers)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker goroutines for the sweep (1 = sequential)")
	timeout := flag.Duration("timeout", 0, "host wall-clock budget for the whole sweep (0 = none)")
	ckptAt := flag.Duration("checkpoint-at", 0, "warm-start: snapshot each point at this simulated time and restore it on later runs (0 = off)")
	ckptDir := flag.String("checkpoint-dir", "", "persist warm-start snapshots here so they survive across runs (requires -checkpoint-at)")
	verbose := flag.Bool("v", false, "print per-run progress to stderr")
	watchdog := flag.Bool("watchdog", false, "attach a liveness watchdog to every cold point so hangs fail fast with a diagnostic (ignored on warm-start runs)")
	checkPorts := flag.Bool("check-ports", false, "enforce the timing-port handshake protocol on every bound link (panics on a violation)")
	selfProf := flag.Int("self-profile", 0, "attach the event-kernel self-profiler to every point with this clock-read cadence (64 is a good default; 0 = off)")
	selfProfOut := flag.String("self-profile-out", "", "self-profile export file for the sweep-wide aggregate: .pb.gz = pprof protobuf, else folded stacks (default: print a table to stderr)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	hostMetrics := flag.String("host-metrics", "", "write periodic host runtime metrics (JSONL) to this file")
	flag.Parse()

	if *checkPorts {
		port.Checking = true
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *pprofAddr != "" {
		stop, err := obs.StartPprof(*pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nvdla-dse:", err)
			os.Exit(1)
		}
		defer stop()
	}

	p := experiments.DSEParams{Scale: *scale, Limit: 8 * sim.Second}
	// Shared spec validation: a bad -workload/-scale fails here with the
	// same message the sweep service's submit endpoint would produce.
	if err := p.Spec(*workload, 1, "ideal", 1).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "nvdla-dse:", err)
		os.Exit(2)
	}
	r := experiments.Runner{Workers: *parallel}
	var attrMu sync.Mutex
	var attr prof.Report
	if *selfProf > 0 {
		r.SelfProfile = *selfProf
		r.AttrSink = func(rep *prof.Report) {
			attrMu.Lock()
			attr.Merge(rep)
			attrMu.Unlock()
		}
	}
	if *hostMetrics != "" {
		f, err := os.Create(*hostMetrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nvdla-dse:", err)
			os.Exit(1)
		}
		defer f.Close()
		r.Monitor = &obs.HostMonitor{W: f}
	}
	var cache *experiments.CheckpointCache
	if *ckptAt > 0 {
		cache = experiments.NewCheckpointCache(*ckptDir)
		r.Options = append(r.Options, experiments.WithWarmStart(
			sim.Tick(ckptAt.Nanoseconds())*sim.Nanosecond, cache))
	}
	if *watchdog {
		r.Options = append(r.Options, experiments.WithWatchdog(guard.Config{}))
	}
	if *verbose {
		r.Report = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	start := time.Now()
	points, err := r.DSEFigure(ctx, *workload, p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvdla-dse:", err)
		os.Exit(1)
	}
	if *selfProf > 0 {
		if err := attr.Export(*selfProfOut, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "nvdla-dse:", err)
			os.Exit(1)
		}
		if *selfProfOut != "" {
			fmt.Fprintf(os.Stderr, "# self-profile (sweep aggregate) written to %s\n", *selfProfOut)
		}
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "# %d points in %s host time (%d workers)\n",
			len(points), time.Since(start).Round(time.Millisecond), *parallel)
		if cache != nil {
			cs := cache.Stats()
			fmt.Fprintf(os.Stderr, "# warm-start cache: %d hits, %d misses, %d stale\n",
				cs.Hits, cs.Misses, cs.Stale)
		}
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
