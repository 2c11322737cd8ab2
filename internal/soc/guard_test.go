package soc

import (
	"context"
	"strings"
	"testing"

	"gem5rtl/internal/guard"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

func buildGuardTestSystem(t *testing.T, o Oracles) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cores = 1
	cfg.Memory = "ideal"
	cfg.NVDLAs = 1
	cfg.NVDLAMaxInflight = 64
	s, err := BuildWithOracles(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	s.NVDLAs[0].Start()
	s.PlayTrace(0, smallTrace(0x1000_0000))
	return s
}

// The watchdog observes but never perturbs: a clean run with it attached
// completes at the exact tick of an unwatched run, with a nil Err, the same
// dispatch count and the same StateHash.
func TestWatchdogTransparentOnCleanRun(t *testing.T) {
	t.Parallel()
	plain := buildGuardTestSystem(t, Oracles{})
	wantDone, err := plain.RunUntilNVDLAsDone(100 * sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	s := buildGuardTestSystem(t, Oracles{})
	wd := s.AttachWatchdog(guard.Config{})
	done, err := s.RunUntilNVDLAsDone(100 * sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if wd.Err() != nil {
		t.Fatalf("clean run tripped the watchdog: %v", wd.Err())
	}
	if done != wantDone {
		t.Fatalf("watched run finished at %d, unwatched at %d", done, wantDone)
	}
	if a, b := s.Queue.Dispatched(), plain.Queue.Dispatched(); a != b {
		t.Errorf("watched run dispatched %d events, unwatched %d", a, b)
	}
	if a, b := mustHash(t, s), mustHash(t, plain); a != b {
		t.Errorf("watched state hash %016x, unwatched %016x", a, b)
	}
}

// dropAllResponses swallows every memory response: the accelerator's
// transaction table can never drain, the canonical lost-transfer hang.
type dropAllResponses struct{}

func (dropAllResponses) TapReq(*port.Packet) port.TapAction  { return port.TapPass }
func (dropAllResponses) TapResp(*port.Packet) port.TapAction { return port.TapDrop }

// A wedged run is converted into a structured HangError by RunNVDLAPhase
// instead of idling to the time limit.
func TestWatchdogReapsLostResponses(t *testing.T) {
	t.Parallel()
	s := buildGuardTestSystem(t, Oracles{})
	s.AttachWatchdog(guard.Config{})
	port.Interpose(s.NVDLAs[0].MemPort(0), dropAllResponses{})

	_, _, err := s.RunNVDLAPhase(context.Background(), sim.Second)
	if err == nil {
		t.Fatal("lost responses did not trip the watchdog")
	}
	if !guard.IsHang(err) {
		t.Fatalf("err is %T (%v), want a HangError", err, err)
	}
	msg := err.Error()
	for _, want := range []string{"watchdog tripped", "in-flight work", "pending events"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("diagnostic missing %q:\n%s", want, msg)
		}
	}
	// The hang was detected long before the 1 s limit.
	if s.Queue.Now() >= sim.Second {
		t.Fatalf("watchdog did not fire early: now = %d", s.Queue.Now())
	}
}

// AttachWatchdog wires every major component; a trip's diagnostic therefore
// names the stuck accelerator's transaction table.
func TestWatchdogDiagnosticNamesComponents(t *testing.T) {
	t.Parallel()
	s := buildGuardTestSystem(t, Oracles{})
	wd := s.AttachWatchdog(guard.Config{})
	port.Interpose(s.NVDLAs[0].MemPort(0), dropAllResponses{})
	_, _, err := s.RunNVDLAPhase(context.Background(), sim.Second)
	if err == nil {
		t.Fatal("expected a hang")
	}
	if !guard.IsHang(err) {
		t.Fatalf("err is %T", err)
	}
	name := s.NVDLAs[0].Name()
	if !strings.Contains(err.Error(), name) {
		t.Fatalf("diagnostic does not name %q:\n%s", name, err.Error())
	}
	if wd.Err() == nil {
		t.Fatal("watchdog Err not latched")
	}
}
