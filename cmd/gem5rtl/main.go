// Command gem5rtl is the simulator's one experiment command. With no
// subcommand it is the general full-system runner: it builds the Table 1 SoC
// with the selected memory technology and optional RTL devices, runs a guest
// workload, and dumps gem5-style statistics. Its subcommands reproduce the
// paper's figures and tables and run the fault campaigns; `gem5rtl help`
// lists them.
//
// Examples:
//
//	gem5rtl -cores 1 -mem DDR4-4ch -program sort -n 200
//	gem5rtl -mem HBM -nvdla 4 -inflight 64 -dla-workload sanity3
//	gem5rtl -cores 1 -pmu -program stream
//	gem5rtl dse -workload sanity3 -scale 64
//	gem5rtl faultcamp -target pmu -n 16 -seed 1
//
// A run can be suspended and resumed: -checkpoint-at stops at a simulated
// time and serialises the full system; -restore (with the same configuration
// flags) resumes it, producing output identical to the uninterrupted run:
//
//	gem5rtl -cores 1 -program sort -checkpoint-at 5ms -checkpoint-out ck.bin
//	gem5rtl -cores 1 -program sort -restore ck.bin
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gem5rtl/internal/cli"
	"gem5rtl/internal/experiments"
	"gem5rtl/internal/guard"
	"gem5rtl/internal/obs"
	"gem5rtl/internal/pmu"
	"gem5rtl/internal/prof"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/trace"
	"gem5rtl/internal/workload"
)

// command is one gem5rtl subcommand. define registers its flags on a fresh
// set and returns the run that follows parsing.
type command struct {
	name, summary string
	define        func() (*flag.FlagSet, func())
}

var commands = []command{
	{"fig5", "Figure 5: PMU vs gem5 IPC/MPKI series on the sort benchmark", fig5},
	{"table2", "Table 2: host-time overhead of the PMU model and its waveform", table2},
	{"table3", "Table 3: host-time overhead of the NVDLA model in full system", table3},
	{"dse", "Figures 6/7: NVDLA memory design-space exploration", dse},
	{"faultcamp", "seeded fault-injection campaign against the NVDLA or the PMU", faultcamp},
}

func main() {
	define := fullSystem
	args := os.Args[1:]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		define = nil
		for _, c := range commands {
			if c.name == args[0] {
				define = c.define
			}
		}
		if define == nil {
			usage()
		}
		args = args[1:]
	}
	fs, run := define()
	fs.Parse(args)
	defer cli.Cleanup()
	run()
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: gem5rtl [flags]                full-system run (gem5rtl -h lists its flags)")
	fmt.Fprintln(os.Stderr, "       gem5rtl <subcommand> [flags]")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", c.name, c.summary)
	}
	os.Exit(2)
}

// fullSystem is the bare gem5rtl run.
func fullSystem() (*flag.FlagSet, func()) {
	fs := flag.NewFlagSet("gem5rtl", flag.ExitOnError)
	cores := fs.Int("cores", 8, "number of CPU cores")
	memName := fs.String("mem", "DDR4-4ch", "memory: ideal, DDR4-1ch/2ch/4ch, GDDR5, HBM")
	program := fs.String("program", "sort", "guest program: sort, loop, stream, none")
	n := fs.Int("n", 200, "workload size parameter")
	withPMU := fs.Bool("pmu", false, "attach the PMU RTL model to core 0")
	nvdlas := fs.Int("nvdla", 0, "number of NVDLA accelerator instances")
	inflight := fs.Int("inflight", 64, "per-NVDLA max in-flight memory requests")
	dlaWorkload := fs.String("dla-workload", "sanity3", "NVDLA trace: sanity3 or googlenet")
	dlaScale := fs.Int("dla-scale", 8, "NVDLA trace footprint divisor")
	scratchpad := fs.Bool("scratchpad", false, "hook NVDLA SRAMIF to an on-chip scratchpad (paper §4.2 extension)")
	limitMs := fs.Int("limit-ms", 2000, "simulated time limit in milliseconds")
	ckptAt := fs.Duration("checkpoint-at", 0, "run to this simulated time (pick one before the run completes), save a checkpoint, and exit")
	ckptOut := fs.String("checkpoint-out", "gem5rtl.ckpt", "checkpoint file written by -checkpoint-at")
	restorePath := fs.String("restore", "", "resume from a checkpoint file; other flags must match the checkpointed configuration")
	debugFlags := fs.String("debug-flags", "", obs.ParseFlagsHelp())
	debugStart := fs.Duration("debug-start", 0, "start of the trace window in simulated time")
	debugEnd := fs.Duration("debug-end", 0, "end of the trace window in simulated time (0 = no end)")
	debugFile := fs.String("debug-file", "", "write trace lines to this file instead of stderr")
	statsInterval := fs.Duration("stats-interval", 0, "dump per-interval stat deltas every this much simulated time (0 = off)")
	statsOut := fs.String("stats-out", "", "interval-stats output file (default stderr)")
	statsFormat := fs.String("stats-format", "jsonl", "interval-stats format: jsonl or csv")
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event JSON (open in Perfetto) of packet lifetimes to this file")
	latHist := fs.Bool("lat-hist", false, "attach packet-latency taps and report per-link histograms in the stats dump")
	fl := cli.Register(fs, cli.Host|cli.Watchdog|cli.CheckPorts)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: gem5rtl [flags], or gem5rtl <subcommand> [flags]; gem5rtl help lists the subcommands")
		fs.PrintDefaults()
	}
	return fs, func() {
		ctx := fl.Setup()

		cfg := soc.DefaultConfig()
		cfg.Cores = *cores
		cfg.Memory = *memName
		cfg.WithPMU = *withPMU
		cfg.NVDLAs = *nvdlas
		cfg.NVDLAMaxInflight = *inflight
		cfg.NVDLAScratchpad = *scratchpad
		s, err := soc.Build(cfg)
		if err != nil {
			cli.Fatal(err)
		}
		if fl.SelfProfile > 0 {
			s.AttachSelfProfiler(fl.SelfProfile)
		}
		fl.StartMonitor()

		// Latency taps must be interposed before a restore: their histograms
		// and in-flight stamps travel in the checkpoint stream, so a checkpoint
		// written with -lat-hist/-trace-out must be resumed with the same flags.
		var chrome *obs.ChromeTrace
		if *traceOut != "" {
			chrome = obs.NewChromeTrace()
		}
		if *latHist || chrome != nil {
			s.AttachLatencyProfile(chrome)
		}
		if *debugFlags != "" {
			out, err := cli.OutFile(*debugFile)
			if err != nil {
				cli.Fatal(err)
			}
			if _, err := s.AttachTracer(obs.Config{
				Flags: *debugFlags,
				Start: cli.SimTime(*debugStart),
				End:   cli.SimTime(*debugEnd),
				Out:   out,
			}); err != nil {
				cli.Fatal(err)
			}
		}

		restoring := *restorePath != ""

		// A restored run performs none of the live-run setup below: program
		// text, core state, accelerator progress and PMU registers all come
		// from the checkpoint. Only host-side closures (the exit handler) are
		// re-registered.
		if *withPMU && !restoring {
			s.PMU.Start()
			host := experiments.NewAXIHost(s.Queue)
			s.Bind(host.Port(), s.PMU.CPUPort(0))
			// Enable commit lines 0-3, the L1D miss line and the cycle line.
			host.Write(pmu.RegEnable, 0x3F)
		}

		var src string
		switch *program {
		case "sort":
			src = workload.SortBenchmark(workload.SortParams{N: *n, SleepUs: 100})
		case "loop":
			src = workload.SimpleLoop(*n)
		case "stream":
			src = workload.MemoryStream(0x400000, *n)
		case "none":
		default:
			cli.Fatal(fmt.Errorf("unknown program %q", *program))
		}
		running := 0
		onExit := func(int64) {
			running--
			if running == 0 && *nvdlas == 0 {
				s.Queue.ExitSimLoop("program exit")
			}
		}
		if src != "" && !restoring {
			if err := s.LoadProgram(0, src); err != nil {
				cli.Fatal(err)
			}
			running++
			s.Cores[0].OnExit = onExit
			s.StartCores(0)
		}

		if !restoring {
			for i := 0; i < *nvdlas; i++ {
				s.NVDLAs[i].Start()
				tr, err := trace.Scaled(*dlaWorkload, uint64(i+1)<<32, *dlaScale)
				if err != nil {
					cli.Fatal(err)
				}
				s.PlayTrace(i, tr)
			}
		}

		if restoring {
			tick, err := s.RestoreFile(*restorePath)
			if err != nil {
				cli.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "# restored %s at %.3f ms simulated\n",
				*restorePath, float64(tick)/float64(sim.Millisecond))
			if src != "" {
				if exited, _ := s.Cores[0].Exited(); !exited {
					running++
				}
				s.Cores[0].OnExit = onExit
			}
		}

		if fl.Watchdog {
			s.AttachWatchdog(guard.Config{})
		}

		var dumper *obs.IntervalDumper
		if *statsInterval > 0 {
			w, err := cli.OutFile(*statsOut)
			if err != nil {
				cli.Fatal(err)
			}
			d, err := obs.NewIntervalDumper(s.Queue, s.Stats, w,
				cli.SimTime(*statsInterval), *statsFormat)
			if err != nil {
				cli.Fatal(err)
			}
			d.Start()
			dumper = d
		}
		// flushObs drains the host-side observability sinks; run it before the
		// final stats dump. The interval dumper polls rather than scheduling
		// events, so a checkpoint may be saved with it running. flushObs is
		// idempotent and on the exit-cleanup stack, so even an aborted run
		// (watchdog trip, blown -timeout) or a checkpointing one leaves a
		// complete, parseable trace and interval-stats file behind.
		flushed := false
		flushObs := func() error {
			if flushed {
				return nil
			}
			flushed = true
			if dumper != nil {
				if err := dumper.Close(); err != nil {
					return err
				}
			}
			if chrome != nil {
				f, err := os.Create(*traceOut)
				if err != nil {
					return err
				}
				if err := chrome.WriteJSON(f); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "# %d spans written to %s (open in Perfetto)\n",
					chrome.Spans(), *traceOut)
			}
			return nil
		}
		cli.Defer(func() { _ = flushObs() })

		// Run to the checkpoint tick or the time limit; an accelerator run to
		// the limit ends with the last accelerator.
		limit := sim.Tick(*limitMs) * sim.Millisecond
		if *ckptAt > 0 {
			limit = cli.SimTime(*ckptAt)
		}
		switch {
		case *nvdlas > 0 && *ckptAt > 0:
			_, _, err = s.RunNVDLAPhase(ctx, limit)
		case *nvdlas > 0:
			var done sim.Tick
			if done, err = s.RunUntilNVDLAsDoneCtx(ctx, limit); err == nil {
				fmt.Printf("# accelerators finished at %.3f ms simulated\n",
					float64(done)/float64(sim.Millisecond))
			}
		default:
			stop := s.Queue.WatchContext(ctx, 0)
			s.Queue.RunUntil(limit)
			stop()
			err = ctx.Err()
		}
		if err == nil && s.Watchdog != nil {
			err = s.Watchdog.Err()
		}
		if err != nil {
			cli.Fatal(err)
		}
		if *ckptAt > 0 {
			if err := s.SaveFile(*ckptOut); err != nil {
				cli.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "# checkpoint at %.3f ms simulated written to %s\n",
				float64(s.Queue.Now())/float64(sim.Millisecond), *ckptOut)
			return
		}

		if err := flushObs(); err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("# simulated %.3f ms (%d events)\n",
			float64(s.Queue.Now())/float64(sim.Millisecond), s.Queue.Dispatched())
		s.Stats.Dump(os.Stdout)
		fl.Attribute(prof.FromQueue(s.Queue))
		fl.ExportProfile()
	}
}
