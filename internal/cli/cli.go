// Package cli is the flag spine of the gem5rtl commands. Each flag family —
// the host family (-timeout, -pprof, -host-metrics, -self-profile,
// -self-profile-out), the guards (-watchdog, -check-ports) and -parallel — is
// registered here, once, and turned into what the simulator packages take: a
// context, an experiments.Runner, a profile export. A command registers only
// the flags it has, so one family can be split across commands without a
// second definition of any flag.
//
// The package also owns the process's exit-cleanup stack: everything a
// command opens is closed by Cleanup on a normal return and by Fatal on an
// error exit, which os.Exit would otherwise skip.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/guard"
	"gem5rtl/internal/obs"
	"gem5rtl/internal/port"
	"gem5rtl/internal/prof"
	"gem5rtl/internal/sim"
)

// Flag selects spine flags for Register; OR them together.
type Flag uint

// The spine's flags.
const (
	Timeout Flag = 1 << iota
	Pprof
	HostMetrics
	SelfProfile
	SelfProfileOut
	Watchdog
	CheckPorts

	// Host is the whole host family.
	Host = Timeout | Pprof | HostMetrics | SelfProfile | SelfProfileOut
)

// Flags holds the parsed values of the spine flags one command registered;
// an unregistered flag keeps its zero value, which is its off setting.
type Flags struct {
	Timeout        time.Duration
	Pprof          string
	HostMetrics    string
	SelfProfile    int
	SelfProfileOut string
	Watchdog       bool
	CheckPorts     bool

	mon *obs.HostMonitor

	mu   sync.Mutex
	attr prof.Report
}

// Register defines the flags in which on fs and returns where their values
// land once fs is parsed.
func Register(fs *flag.FlagSet, which Flag) *Flags {
	f := &Flags{}
	if which&Timeout != 0 {
		fs.DurationVar(&f.Timeout, "timeout", 0, "host wall-clock budget for the whole run, sweep or campaign (0 = none)")
	}
	if which&Pprof != 0 {
		fs.StringVar(&f.Pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	}
	if which&HostMetrics != 0 {
		fs.StringVar(&f.HostMetrics, "host-metrics", "", "write periodic host runtime metrics (JSONL) to this file")
	}
	if which&SelfProfile != 0 {
		fs.IntVar(&f.SelfProfile, "self-profile", 0, "attach the self-profiler to every run with this clock-read cadence in dispatches (64 is a good default; 0 = off)")
	}
	if which&SelfProfileOut != 0 {
		fs.StringVar(&f.SelfProfileOut, "self-profile-out", "", "self-profile export file, aggregated over every run: .pb.gz = pprof protobuf, else folded stacks (default: print an attribution table to stderr)")
	}
	if which&Watchdog != 0 {
		fs.BoolVar(&f.Watchdog, "watchdog", false, "attach a liveness watchdog so a hang fails fast with a diagnostic dump instead of idling to the time limit (a sweep guards every cold point)")
	}
	if which&CheckPorts != 0 {
		fs.BoolVar(&f.CheckPorts, "check-ports", false, "enforce the timing-port handshake protocol on every bound link (panics on a violation)")
	}
	return f
}

// Parallel defines -parallel, the worker-goroutine count, with the command's
// own default.
func Parallel(fs *flag.FlagSet, def int) *int {
	return fs.Int("parallel", def, "worker goroutines (0 = all CPUs); output is identical for any count, host-time tables are faithful only at 1")
}

// Setup applies the parsed flags to the process: it enforces -check-ports,
// serves -pprof, opens -host-metrics and returns a context bounded by
// -timeout. What it opens is closed by Cleanup or Fatal.
func (f *Flags) Setup() context.Context {
	if f.CheckPorts {
		// The default of every system the command builds (soc.Oracles.Ports).
		if err := os.Setenv(port.CheckPortsEnv, "1"); err != nil {
			Fatal(err)
		}
	}
	ctx := context.Background()
	if f.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.Timeout)
		Defer(cancel)
	}
	if f.Pprof != "" {
		stop, err := obs.StartPprof(f.Pprof)
		if err != nil {
			Fatal(err)
		}
		Defer(stop)
		fmt.Fprintf(os.Stderr, "# pprof on http://%s/debug/pprof/\n", f.Pprof)
	}
	if f.HostMetrics != "" {
		w, err := OutFile(f.HostMetrics)
		if err != nil {
			Fatal(err)
		}
		f.mon = &obs.HostMonitor{W: w}
	}
	return ctx
}

// StartMonitor samples -host-metrics from now until Cleanup, for a command
// that makes one run itself rather than through a Runner (which samples for
// the length of each sweep).
func (f *Flags) StartMonitor() {
	if f.mon != nil {
		f.mon.Start()
		Defer(f.mon.Stop)
	}
}

// Runner returns a runner on workers goroutines that carries the flags: the
// host monitor, the self-profiler with Attribute as its AttrSink, and the
// run options.
func (f *Flags) Runner(workers int) experiments.Runner {
	r := experiments.Runner{Workers: workers, Monitor: f.mon, Options: f.Options()}
	if f.SelfProfile > 0 {
		r.SelfProfile = f.SelfProfile
		r.AttrSink = f.Attribute
	}
	return r
}

// Options returns the run options the watchdog flag selects.
func (f *Flags) Options() []experiments.Option {
	if f.Watchdog {
		return []experiments.Option{experiments.WithWatchdog(guard.Config{})}
	}
	return nil
}

// Attribute folds one run's attribution report into the command's aggregate;
// a nil report is ignored. It is safe for concurrent use.
func (f *Flags) Attribute(rep *prof.Report) {
	f.mu.Lock()
	f.attr.Merge(rep)
	f.mu.Unlock()
}

// ExportProfile writes the aggregate attribution where -self-profile-out
// says. It does nothing when -self-profile is off.
func (f *Flags) ExportProfile() {
	if f.SelfProfile <= 0 {
		return
	}
	if err := f.attr.Export(f.SelfProfileOut, os.Stderr); err != nil {
		Fatal(err)
	}
	if f.SelfProfileOut != "" {
		fmt.Fprintf(os.Stderr, "# self-profile written to %s\n", f.SelfProfileOut)
	}
}

// SimTime converts a flag's duration to simulated ticks.
func SimTime(d time.Duration) sim.Tick { return sim.Tick(d.Nanoseconds()) * sim.Nanosecond }

// cleanup is the exit-cleanup stack, run last-in first-out.
var cleanup []func()

// Defer pushes fn onto the exit-cleanup stack.
func Defer(fn func()) { cleanup = append(cleanup, fn) }

// Cleanup runs and empties the exit-cleanup stack; a command defers it.
func Cleanup() {
	for len(cleanup) > 0 {
		fn := cleanup[len(cleanup)-1]
		cleanup = cleanup[:len(cleanup)-1]
		fn()
	}
}

// OutFile resolves an output-file flag: empty means stderr, anything else is
// created and closed by Cleanup or Fatal, so an aborted run — a watchdog
// trip, a blown -timeout — still leaves whole files behind.
func OutFile(path string) (io.Writer, error) {
	if path == "" {
		return os.Stderr, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	Defer(func() { f.Close() })
	return f, nil
}

// Fatal runs the exit-cleanup stack, reports err and exits with status 1.
func Fatal(err error) { Exit(1, err) }

// Exit runs the exit-cleanup stack, reports err prefixed with the program's
// name and exits with code.
func Exit(code int, err error) {
	Cleanup()
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	os.Exit(code)
}
