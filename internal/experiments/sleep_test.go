package experiments

import (
	"context"
	"testing"

	"gem5rtl/internal/port"
	"gem5rtl/internal/rtlobject"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
)

// sleepSplitSpecs are the machines the sleep differential splits: ideal
// memory (a response every cycle, the object hardly sleeps), the contended
// cell (four accelerators at the cap on one channel, asleep most of the
// time), a latency-bound cap of 4 (the send queue waits at the cap across
// sleeps), two accelerators, and the compute-heavy trace on DRAM, HBM and
// ideal memory.
func sleepSplitSpecs() []RunSpec {
	p := DSEParams{Scale: 64, Limit: 8 * sim.Second}
	return []RunSpec{
		p.Spec("sanity3", 1, "ideal", 240),
		p.Spec("sanity3", 4, "DDR4-1ch", 240),
		p.Spec("sanity3", 1, "DDR4-4ch", 4),
		p.Spec("sanity3", 2, "DDR4-2ch", 64),
		p.Spec("googlenet", 1, "DDR4-4ch", 240),
		p.Spec("googlenet", 2, "HBM", 16),
		p.Spec("googlenet", 1, "ideal", 4),
	}
}

// sleepSplitTicks is the ladder of save ticks: around the first model edges,
// a run of primes (never on an edge), a few exact edges further out, and an
// LCG stream below 9 µs.
func sleepSplitTicks() []sim.Tick {
	ticks := []sim.Tick{1, 499, 500, 999, 1000, 1001, 1999, 2000, 2001,
		7, 101, 1009, 2003, 5003, 10007, 50021, 100003, 250007, 500009, 1000003, 2000003, 4000037, 8000009,
		3000, 64000, 777000, 2500000, 6000000}
	x := uint64(12345)
	for len(ticks) < 44 {
		x = x*6364136223846793005 + 1442695040888963407
		ticks = append(ticks, sim.Tick(x>>33)%(9*sim.Microsecond))
	}
	return ticks
}

// splitWitness is what one run split at a tick leaves behind.
type splitWitness struct {
	atSplit, atEnd uint64 // StateHash
	reached, done  sim.Tick
	remaining      int
}

// runSplit runs spec to the split tick, hashes the machine, runs it to
// completion and hashes it again. oracle builds the per-cycle machine.
func runSplit(t *testing.T, spec RunSpec, split sim.Tick, oracle bool) (splitWitness, *soc.System) {
	t.Helper()
	port.SetPacketIDForTest(0)
	rtlobject.IgnoreSleepersForTest(oracle)
	s, err := buildPoint(spec)
	rtlobject.IgnoreSleepersForTest(false)
	if err != nil {
		t.Fatalf("%v: build: %v", spec, err)
	}
	var w splitWitness
	w.reached, w.remaining, err = s.RunNVDLAPhase(context.Background(), split)
	if err != nil {
		t.Fatalf("%v: run to %d: %v", spec, split, err)
	}
	if w.atSplit, err = s.StateHash(); err != nil {
		t.Fatalf("%v: hash at %d: %v", spec, split, err)
	}
	if w.done, err = s.RunUntilNVDLAsDoneCtx(context.Background(), spec.Limit); err != nil {
		t.Fatalf("%v: run from %d: %v", spec, split, err)
	}
	if w.atEnd, err = s.StateHash(); err != nil {
		t.Fatalf("%v: final hash: %v", spec, err)
	}
	return w, s
}

// TestSleepingMatchesPerCycleAtEverySplit is the system-level differential:
// for every spec and every save tick, the machine whose RTLObjects sleep and
// the one that ticks its accelerators on every edge serialise to the same
// bytes at the split and at completion. The mid-run hash is what sees the
// NVDLA's Quiet and Advance: a horizon one cycle long, a fetchTile not
// stepped or a cycle credited to the wrong counter is in the checkpoint
// stream long before it is in a final tick.
func TestSleepingMatchesPerCycleAtEverySplit(t *testing.T) {
	if testing.Short() {
		t.Skip("7 specs x 44 splits x 2 machines")
	}
	base := port.PacketIDMark()
	defer port.SetPacketIDForTest(base)
	for _, spec := range sleepSplitSpecs() {
		var elided, ticks uint64
		for _, split := range sleepSplitTicks() {
			want, _ := runSplit(t, spec, split, true)
			got, s := runSplit(t, spec, split, false)
			if got != want {
				t.Errorf("%v split at %d:\n sleeping  %+v\n per-cycle %+v", spec, split, got, want)
			}
			elided += s.Queue.Elided()
			for _, o := range s.NVDLAs {
				ticks += o.Stats().Ticks
			}
		}
		t.Logf("%v: %d of %d accelerator cycles applied in closed form", spec, elided, ticks)
		if elided == 0 {
			t.Errorf("%v: nothing was elided: the differential compared the oracle with itself", spec)
		}
	}
}

// requireMostlyElided runs spec to completion and checks the mechanism by a
// count: at least 85% of the accelerators' cycles credited, not dispatched.
func requireMostlyElided(t *testing.T, spec RunSpec) {
	t.Helper()
	s, err := buildPoint(spec)
	if err != nil {
		t.Fatalf("%v: build: %v", spec, err)
	}
	if _, err := s.RunUntilNVDLAsDoneCtx(context.Background(), spec.Limit); err != nil {
		t.Fatalf("%v: run: %v", spec, err)
	}
	checkMostlyElided(t, spec, s)
}

// checkMostlyElided is requireMostlyElided's assertion on a system that has
// already run.
func checkMostlyElided(t *testing.T, spec RunSpec, s *soc.System) {
	t.Helper()
	var ticks uint64
	for _, o := range s.NVDLAs {
		ticks += o.Stats().Ticks
	}
	elided := s.Queue.Elided()
	t.Logf("%v: %d of %d accelerator cycles elided (%.1f%%)", spec, elided, ticks, 100*float64(elided)/float64(ticks))
	if elided*100 < ticks*85 {
		t.Errorf("%v: only %d of %d accelerator cycles elided, under 85%%", spec, elided, ticks)
	}
}
