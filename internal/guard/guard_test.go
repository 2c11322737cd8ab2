package guard

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"gem5rtl/internal/sim"
)

type fakeProbe struct {
	name string
	n    int
}

func (p *fakeProbe) GuardName() string   { return p.name }
func (p *fakeProbe) InFlight() int       { return p.n }
func (p *fakeProbe) GuardDetail() string { return fmt.Sprintf("n=%d", p.n) }

// A quiescent system lets the watchdog stop polling once the queue drains,
// and never trips.
func TestWatchdogQuiescentDrains(t *testing.T) {
	q := sim.NewEventQueue()
	wd := NewWatchdog(q, Config{})
	p := &fakeProbe{name: "comp", n: 1}
	wd.Watch(p)
	// The component finishes its work before the first check.
	q.ScheduleFunc("finish", 10*sim.Microsecond, func() { p.n = 0 })
	q.RunUntil(sim.Second)
	if err := wd.Err(); err != nil {
		t.Fatalf("quiescent run tripped: %v", err)
	}
	if !q.Empty() {
		t.Fatalf("queue did not drain: %d pending", q.Pending())
	}
}

// A queue that drains while a component still holds in-flight work is the
// lost-event hang: the watchdog must trip on its very next check.
func TestWatchdogDrainedWithWork(t *testing.T) {
	q := sim.NewEventQueue()
	wd := NewWatchdog(q, Config{})
	wd.Watch(&fakeProbe{name: "stuck.cache", n: 3})
	q.RunUntil(sim.Second)
	err := wd.Err()
	if err == nil {
		t.Fatal("expected a trip, got nil")
	}
	var hang *HangError
	if !errors.As(err, &hang) {
		t.Fatalf("err is %T, want *HangError", err)
	}
	if !strings.Contains(hang.Reason, "drained with in-flight work") {
		t.Fatalf("reason = %q", hang.Reason)
	}
	if !strings.Contains(hang.Diagnostic, "stuck.cache") || !strings.Contains(hang.Diagnostic, "n=3") {
		t.Fatalf("diagnostic missing component dump:\n%s", hang.Diagnostic)
	}
	if !IsHang(err) {
		t.Fatal("IsHang(err) = false")
	}
}

// tick installs a free-running self-rescheduling event, the signature of a
// wedged-but-busy simulation (idle accelerator tickers keep the queue alive).
func tick(q *sim.EventQueue, period sim.Tick, fn func()) {
	var ev *sim.Event
	ev = sim.NewEvent("ticker", func() {
		if fn != nil {
			fn()
		}
		q.Schedule(ev, q.Now()+period)
	})
	q.Schedule(ev, period)
}

// In-flight work + live queue + no forward progress = stall trip after
// MaxStalls checks.
func TestWatchdogStallTrip(t *testing.T) {
	q := sim.NewEventQueue()
	wd := NewWatchdog(q, Config{Interval: 10 * sim.Microsecond, MaxStalls: 3})
	wd.Watch(&fakeProbe{name: "rtl.dla0", n: 1})
	wd.AddProgress("retired", func() uint64 { return 42 }) // frozen
	tick(q, sim.Microsecond, nil)
	q.RunUntil(sim.Second)
	err := wd.Err()
	if err == nil {
		t.Fatal("expected a stall trip, got nil")
	}
	var hang *HangError
	if !errors.As(err, &hang) {
		t.Fatalf("err is %T, want *HangError", err)
	}
	if !strings.Contains(hang.Reason, "no forward progress") {
		t.Fatalf("reason = %q", hang.Reason)
	}
	// Interval 10us, 3 stalls after the first (baseline) check -> trip by 40us.
	if hang.Tick > 50*sim.Microsecond {
		t.Fatalf("tripped late at %d", hang.Tick)
	}
	if !strings.Contains(hang.Diagnostic, "pending events") {
		t.Fatalf("diagnostic missing event dump:\n%s", hang.Diagnostic)
	}
}

// Forward progress resets the stall count: a slow but advancing simulation
// never trips.
func TestWatchdogProgressResetsStalls(t *testing.T) {
	q := sim.NewEventQueue()
	wd := NewWatchdog(q, Config{Interval: 10 * sim.Microsecond, MaxStalls: 2})
	wd.Watch(&fakeProbe{name: "busy", n: 1})
	var retired uint64
	wd.AddProgress("retired", func() uint64 { return retired })
	// Progress once per check interval: always exactly one retirement between
	// checks, so the stall counter can never reach MaxStalls.
	tick(q, 10*sim.Microsecond, func() { retired++ })
	q.RunUntil(500 * sim.Microsecond)
	if err := wd.Err(); err != nil {
		t.Fatalf("advancing run tripped: %v", err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds collided on first draw")
	}
	for _, n := range []uint64{1, 7, 1 << 40} {
		if v := NewRNG(5).Uint64n(n); v >= n {
			t.Fatalf("Uint64n(%d) = %d out of range", n, v)
		}
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(7, i)
		if seen[s] {
			t.Fatalf("DeriveSeed collision at index %d", i)
		}
		seen[s] = true
	}
	if DeriveSeed(7, 0) != DeriveSeed(7, 0) {
		t.Fatal("DeriveSeed not deterministic")
	}
	if DeriveSeed(7, 0) == DeriveSeed(8, 0) {
		t.Fatal("campaign seed ignored")
	}
}

func TestOutcomeAndKindStrings(t *testing.T) {
	if Masked.String() != "masked" || Hung.String() != "hung" {
		t.Fatal("Outcome strings changed")
	}
	if DropResp.String() != "drop-resp" || RTLStateFlip.String() != "rtl-state-flip" {
		t.Fatal("FaultKind strings changed")
	}
}

// A tripped watchdog with a trace-tail source includes each tripped
// component's recent trace lines in the diagnostic — the last thing the
// component logged before the hang.
func TestHangDiagnosticIncludesTraceTail(t *testing.T) {
	q := sim.NewEventQueue()
	wd := NewWatchdog(q, Config{})
	wd.Watch(&fakeProbe{name: "stuck.cache", n: 2})
	wd.Watch(&fakeProbe{name: "fine.xbar", n: 0})
	wd.SetTraceTail(func(component string, n int) []string {
		if component != "stuck.cache" {
			t.Errorf("tail queried for untripped component %q", component)
			return nil
		}
		if n != TraceTailLines {
			t.Errorf("tail depth %d, want %d", n, TraceTailLines)
		}
		return []string{"100: stuck.cache: miss addr=0x40", "200: stuck.cache: MSHR full"}
	})
	q.RunUntil(sim.Second)
	var hang *HangError
	if !errors.As(wd.Err(), &hang) {
		t.Fatalf("expected a trip, got %v", wd.Err())
	}
	if !strings.Contains(hang.Diagnostic, "| 100: stuck.cache: miss addr=0x40") ||
		!strings.Contains(hang.Diagnostic, "| 200: stuck.cache: MSHR full") {
		t.Fatalf("diagnostic missing trace tail:\n%s", hang.Diagnostic)
	}
}

// DeriveSeedString must be a pure function of (seed, key): identical inputs
// reproduce, and nearby inputs (one character, one seed bit apart) land in
// unrelated streams — the property retry schedules and chaos campaigns rely
// on for worker-count independence.
func TestDeriveSeedStringDeterministicAndIndependent(t *testing.T) {
	const fp = "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"
	a := DeriveSeedString(42, fp)
	if b := DeriveSeedString(42, fp); a != b {
		t.Fatalf("same inputs, different seeds: %#x vs %#x", a, b)
	}
	variants := []uint64{
		DeriveSeedString(43, fp),
		DeriveSeedString(42, fp[:len(fp)-1]+"9"),
		DeriveSeedString(42, ""),
	}
	for i, v := range variants {
		if v == a {
			t.Errorf("variant %d collides with the base seed %#x", i, a)
		}
	}
}
