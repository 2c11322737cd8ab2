// Package guard is the robustness layer of gem5rtl: a liveness watchdog for
// the event loop, and a deterministic fault-injection vocabulary used by the
// campaign engine in internal/experiments.
//
// Co-simulation has two classic silent failure modes the rest of the
// simulator cannot see. A wedged timing-port handshake (a lost retry, a
// dropped response) leaves components with in-flight work while the event
// queue either drains or spins on idle tickers until the time limit; and a
// misbehaving RTL model corrupts results without tripping anything. The
// watchdog closes the first gap: components expose their occupancy through
// the small Probe interface, the watchdog samples forward-progress counters
// from a periodic host-side poll of the run loop (sim.EventQueue.Poll), and a
// wedge is converted into a structured HangError carrying pending events,
// in-flight packet IDs and per-component occupancy instead of a hang.
package guard

import (
	"errors"
	"fmt"
	"strings"

	"gem5rtl/internal/sim"
)

// Probe is implemented by components that can report in-flight work the
// watchdog should wait on: cache MSHRs, crossbar queues, DRAM controller
// queues, RTLObject transaction tables, CPU load/store queues.
type Probe interface {
	// GuardName identifies the component in diagnostics.
	GuardName() string
	// InFlight returns the component's current in-flight work item count.
	// Zero means the component is quiescent.
	InFlight() int
	// GuardDetail renders the in-flight work (packet IDs, block addresses,
	// queue occupancies) for the diagnostic dump. Only consulted on a trip.
	GuardDetail() string
}

// Config tunes a Watchdog. The zero value selects the defaults.
type Config struct {
	// Interval is the simulated time between liveness checks
	// (0 = DefaultInterval).
	Interval sim.Tick
	// MaxStalls is how many consecutive no-progress checks with in-flight
	// work trip the watchdog (0 = DefaultMaxStalls). The effective hang
	// detection latency is Interval * MaxStalls of simulated time.
	MaxStalls int
	// MaxDumpEvents bounds the pending-event listing in the diagnostic
	// (0 = DefaultMaxDumpEvents).
	MaxDumpEvents int
}

// Watchdog defaults: a check every 50 us of simulated time, tripping after
// four silent checks. Memory round-trips are nanosecond-scale, so 200 us
// without a single retired packet or committed instruction while work is
// outstanding is decisively a hang, while sleep syscalls and long compute
// stretches (which hold no in-flight work) can never false-trip.
const (
	DefaultInterval      = 50 * sim.Microsecond
	DefaultMaxStalls     = 4
	DefaultMaxDumpEvents = 16
)

// TraceTailLines is how many recent trace lines per tripped component a
// HangError diagnostic includes when a trace-tail source is wired.
const TraceTailLines = 8

// HangError is the structured diagnostic produced when the watchdog trips.
type HangError struct {
	// Tick is the simulated time of the trip.
	Tick sim.Tick
	// Reason is the one-line trip cause.
	Reason string
	// Diagnostic is the multi-line dump: progress counters, per-component
	// occupancy with in-flight packet IDs, and the head of the event queue.
	Diagnostic string
}

func (e *HangError) Error() string {
	return fmt.Sprintf("guard: watchdog tripped at tick %d: %s\n%s", e.Tick, e.Reason, e.Diagnostic)
}

// IsHang reports whether err is (or wraps) a watchdog HangError.
func IsHang(err error) bool {
	var h *HangError
	return errors.As(err, &h)
}

type progressSrc struct {
	name string
	fn   func() uint64
}

// Watchdog is an EventQueue-attached liveness monitor. Register components
// with Watch and forward-progress counters with AddProgress before running;
// a trip latches a HangError (see Err) and ends the simulation loop via
// ExitSimLoop, so the driving code regains control with full diagnostics.
// Its checks are polls, not events: an untripped watchdog leaves the
// simulated machine, its dispatch count and its checkpoint bytes exactly as
// an unwatched run's, so it needs no detaching around a save.
type Watchdog struct {
	q   *sim.EventQueue
	cfg Config

	probes   []Probe
	progress []progressSrc

	// traceTail, when set, supplies the last trace lines recorded for a
	// component (see SetTraceTail); trips include them in the diagnostic.
	traceTail func(component string, n int) []string

	last      uint64
	lastValid bool
	stalls    int
	err       *HangError
}

// NewWatchdog creates a watchdog on q, its first check due one Interval
// from now.
func NewWatchdog(q *sim.EventQueue, cfg Config) *Watchdog {
	if cfg.Interval == 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.MaxStalls == 0 {
		cfg.MaxStalls = DefaultMaxStalls
	}
	if cfg.MaxDumpEvents == 0 {
		cfg.MaxDumpEvents = DefaultMaxDumpEvents
	}
	w := &Watchdog{q: q, cfg: cfg}
	// A poll observes the post-update state of its tick: every component
	// event at or before the deadline has run.
	q.Poll(q.Now()+cfg.Interval, w.check)
	return w
}

// Watch registers components whose in-flight work the watchdog tracks.
func (w *Watchdog) Watch(probes ...Probe) {
	w.probes = append(w.probes, probes...)
}

// SetTraceTail wires a trace-line source (typically obs.Tracer.Tail): on a
// trip, the diagnostic then includes the last trace lines of every tripped
// component, so a hang report ships its own context. The watchdog keeps
// working without one — the guard package stays decoupled from tracing.
func (w *Watchdog) SetTraceTail(tail func(component string, n int) []string) {
	w.traceTail = tail
}

// AddProgress registers a monotonic forward-progress counter (retired
// packets, committed instructions, completed tiles). Any change between two
// checks counts as progress. Free-running counters such as raw dispatched
// events or model tick counts must NOT be registered: an idle ticker spins
// forever and would mask a real hang.
func (w *Watchdog) AddProgress(name string, fn func() uint64) {
	w.progress = append(w.progress, progressSrc{name, fn})
}

// Err returns the latched HangError, or nil if the watchdog never tripped.
func (w *Watchdog) Err() error {
	if w.err == nil {
		return nil
	}
	return w.err
}

// check is the periodic liveness poll; it returns the tick of the next one.
func (w *Watchdog) check() sim.Tick {
	work := 0
	for _, p := range w.probes {
		work += p.InFlight()
	}
	var total uint64
	for _, src := range w.progress {
		total += src.fn()
	}
	progressed := !w.lastValid || total != w.last
	w.last, w.lastValid = total, true
	switch {
	case work == 0:
		// Quiescent: nothing to wait on. Reset the stall count so idle
		// stretches (sleeping cores, drained accelerators) never accumulate
		// toward a trip, and stop checking once the queue has drained.
		w.stalls = 0
		if w.q.Empty() {
			return sim.MaxTick
		}
	case w.q.Empty():
		// Nothing is left to dispatch, yet components still hold in-flight
		// work: the simulation lost the events that would have completed it.
		w.trip("event queue drained with in-flight work")
		return sim.MaxTick
	case progressed:
		w.stalls = 0
	default:
		w.stalls++
		if w.stalls >= w.cfg.MaxStalls {
			w.trip(fmt.Sprintf("no forward progress for %d checks (%d ns simulated) with in-flight work",
				w.stalls, uint64(w.cfg.Interval)*uint64(w.stalls)/uint64(sim.Nanosecond)))
			return sim.MaxTick
		}
	}
	return w.q.Now() + w.cfg.Interval
}

// trip latches the diagnostic and ends the simulation loop.
func (w *Watchdog) trip(reason string) {
	var b strings.Builder
	fmt.Fprintf(&b, "progress counters:\n")
	for _, src := range w.progress {
		fmt.Fprintf(&b, "  %-24s %d\n", src.name, src.fn())
	}
	fmt.Fprintf(&b, "in-flight work:\n")
	for _, p := range w.probes {
		n := p.InFlight()
		if n == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-24s %d  %s\n", p.GuardName(), n, p.GuardDetail())
		if w.traceTail == nil {
			continue
		}
		for _, line := range w.traceTail(p.GuardName(), TraceTailLines) {
			fmt.Fprintf(&b, "    | %s\n", line)
		}
	}
	pending := w.q.PendingSummaries(w.cfg.MaxDumpEvents)
	fmt.Fprintf(&b, "pending events (%d total, first %d):\n", w.q.Pending(), len(pending))
	for _, s := range pending {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	w.err = &HangError{Tick: w.q.Now(), Reason: reason, Diagnostic: b.String()}
	w.q.ExitSimLoop("watchdog: " + reason)
}
