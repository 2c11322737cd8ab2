package soc

import (
	"context"
	"testing"

	"gem5rtl/internal/nvdla"
	"gem5rtl/internal/port"
	"gem5rtl/internal/rtlobject"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/trace"
)

// buildSleepPair builds the guard-test system twice: as it runs, and as the
// per-cycle oracle whose RTLObjects ignore the Sleeper capability.
func buildSleepPair(t *testing.T) (sleeping, oracle *System) {
	t.Helper()
	return buildGuardTestSystem(t, Oracles{}), buildGuardTestSystem(t, Oracles{PerCycle: true})
}

func mustHash(t *testing.T, s *System) uint64 {
	t.Helper()
	h, err := s.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestLostResponseEndsAtLimit: with every response dropped and no watchdog,
// an accelerator asleep on data that never comes leaves the queue empty; the
// run must still end at its limit with the accelerator reported as running,
// in the state the per-cycle machine idles to.
func TestLostResponseEndsAtLimit(t *testing.T) {
	t.Parallel()
	const limit = 300 * sim.Microsecond
	nap, or := buildSleepPair(t)
	for _, s := range []*System{nap, or} {
		for i := 0; i < rtlobject.NumMemPorts; i++ {
			port.Interpose(s.NVDLAs[0].MemPort(i), dropAllResponses{})
		}
		reached, remaining, err := s.RunNVDLAPhase(context.Background(), limit)
		if err != nil || remaining != 1 || reached != limit {
			t.Fatalf("RunNVDLAPhase = (%d, %d, %v), want (%d, 1, nil)", reached, remaining, err, limit)
		}
		if _, err := s.RunUntilNVDLAsDone(limit); err == nil {
			t.Fatal("RunUntilNVDLAsDone reported a wedged accelerator as done")
		}
	}
	if nap.Queue.Elided() == 0 {
		t.Fatal("the wedged accelerator never slept")
	}
	if a, b := nap.NVDLAs[0].Stats(), or.NVDLAs[0].Stats(); a != b {
		t.Errorf("bridge stats at the limit:\n sleeping  %+v\n per-cycle %+v", a, b)
	}
	if a, b := nap.NVDLAWrappers[0].Stats(), or.NVDLAWrappers[0].Stats(); a != b {
		t.Errorf("model stats at the limit:\n sleeping  %+v\n per-cycle %+v", a, b)
	}
	if a, b := nap.Queue.Dispatched(), or.Queue.Dispatched(); a != b {
		t.Errorf("dispatched %d events, per-cycle %d", a, b)
	}
	if a, b := mustHash(t, nap), mustHash(t, or); a != b {
		t.Errorf("state hash %016x, per-cycle %016x", a, b)
	}
}

// TestPlayTraceWakesIdleAccelerator: PlayTrace writes the accelerator's
// registers behind the RTLObject's back. Played into an accelerator that has
// finished and gone to sleep for good, between two model edges, the second
// workload must start on the edge it starts on when ticking per cycle.
func TestPlayTraceWakesIdleAccelerator(t *testing.T) {
	t.Parallel()
	nap, or := buildSleepPair(t)
	var done [2]sim.Tick
	for i, s := range []*System{nap, or} {
		if _, err := s.RunUntilNVDLAsDone(100 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		s.Queue.RunUntil(s.Queue.Now() + 40*sim.Microsecond + 333)
		// A trace ends at WaitIRQ and leaves acknowledging the interrupt to
		// the host; this one starts by doing it.
		tr := smallTrace(0x2000_0000)
		tr.Ops = append([]trace.Op{{Kind: trace.OpWriteReg, Addr: nvdla.RegIrqClear, Val: 1}}, tr.Ops...)
		s.PlayTrace(0, tr)
		var err error
		if done[i], err = s.RunUntilNVDLAsDone(100 * sim.Millisecond); err != nil {
			t.Fatalf("second workload: %v", err)
		}
	}
	if done[0] != done[1] {
		t.Errorf("second workload done at %d, per-cycle at %d", done[0], done[1])
	}
	if a, b := nap.NVDLAWrappers[0].Stats(), or.NVDLAWrappers[0].Stats(); a != b {
		t.Errorf("model stats:\n sleeping  %+v\n per-cycle %+v", a, b)
	}
	if a, b := mustHash(t, nap), mustHash(t, or); a != b {
		t.Errorf("state hash %016x, per-cycle %016x", a, b)
	}
}

// TestRunPrimitivesReturnSettled: what back-door readers see after a run
// primitive returns — the wrapper's own counters, the dispatch count — is the
// per-cycle machine's, at a split tick and after completion, without the
// reader settling anything.
func TestRunPrimitivesReturnSettled(t *testing.T) {
	t.Parallel()
	nap, or := buildSleepPair(t)
	for _, at := range []sim.Tick{3 * sim.Microsecond, 3*sim.Microsecond + 1, 7777777} {
		for _, s := range []*System{nap, or} {
			if _, _, err := s.RunNVDLAPhase(context.Background(), at); err != nil {
				t.Fatal(err)
			}
		}
		if a, b := nap.NVDLAWrappers[0].Stats(), or.NVDLAWrappers[0].Stats(); a != b {
			t.Errorf("at %d, model stats:\n sleeping  %+v\n per-cycle %+v", at, a, b)
		}
		if a, b := nap.Queue.Dispatched(), or.Queue.Dispatched(); a != b {
			t.Errorf("at %d: dispatched %d events, per-cycle %d", at, a, b)
		}
	}
}
