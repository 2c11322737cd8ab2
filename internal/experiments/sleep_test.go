package experiments

import (
	"context"
	"fmt"
	"hash/maphash"
	"io"
	"sync/atomic"
	"testing"

	"gem5rtl/internal/conform"
	"gem5rtl/internal/pmu"
	"gem5rtl/internal/port"
	"gem5rtl/internal/rtl"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/workload"
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

// digestSeed keys every digest a split test takes, so digests compare.
var digestSeed = maphash.MakeSeed()

// stateDigest is a digest of s's checkpoint bytes, as conform.Digest is, in
// a hash that costs a fraction of that FNV: the split tests take thousands,
// most of a machine's bytes its memory, and compare them within one process
// only (conform.Digest made them 25% slower).
func stateDigest(t *testing.T, s *soc.System) uint64 {
	t.Helper()
	var h maphash.Hash
	h.SetSeed(digestSeed)
	if err := s.Save(&h); err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

// splitWitness is what an NVDLA machine shows at a split tick or at its end.
type splitWitness struct {
	Hash      uint64 // stateDigest
	Reached   sim.Tick
	Remaining int
}

// closedForm totals the cycles a split test's subject runs applied in closed
// form and the cycles they ran.
type closedForm struct{ elided, ticks atomic.Uint64 }

// report logs the totals of what once its subtests are done, and fails t if
// the subjects ran and slept through nothing.
func (n *closedForm) report(t *testing.T, what, unit string) {
	if elided, ticks := n.elided.Load(), n.ticks.Load(); ticks > 0 {
		t.Logf("%s: %d of %d %s cycles applied in closed form", what, elided, ticks, unit)
		if elided == 0 {
			t.Errorf("%s: nothing was elided: the differential compared the oracle with itself", what)
		}
	}
}

// TestSleepingMatchesPerCycleAtEverySplit is the system-level differential:
// for every spec and every save tick, the machine whose RTLObjects sleep and
// the one that ticks its accelerators on every edge serialise to the same
// bytes at the split and at completion, and report the same ticks
// (conform.Splits: one per-cycle run per spec, one sleeping run per split).
// The mid-run hash is what sees the NVDLA's Quiet and Advance: a horizon one
// cycle long, a fetchTile not stepped or a cycle credited to the wrong
// counter is in the checkpoint stream long before it is in a final tick.
func TestSleepingMatchesPerCycleAtEverySplit(t *testing.T) {
	if testing.Short() {
		t.Skip("7 specs x 44 splits")
	}
	t.Parallel()
	for _, spec := range sleepSplitSpecs() {
		t.Run(spec.String(), func(t *testing.T) {
			t.Parallel()
			var n closedForm
			t.Cleanup(func() { n.report(t, spec.String(), "accelerator") })
			conform.Splits(t, sleepSplitTicks(), func(t *testing.T, oracle bool) conform.Run[sim.Tick, splitWitness] {
				s, err := buildPoint(spec, soc.Oracles{PerCycle: oracle})
				if err != nil {
					t.Fatalf("%v: build: %v", spec, err)
				}
				// A phase asked for after completion reports the end of the
				// completion window; the run that first reaches the tick
				// reports the completion tick, and so does this one.
				var doneAt sim.Tick
				return conform.Run[sim.Tick, splitWitness]{
					To: func(at sim.Tick) splitWitness {
						reached, remaining, err := s.RunNVDLAPhase(context.Background(), at)
						if err != nil {
							t.Fatalf("%v: run to %d: %v", spec, at, err)
						}
						if remaining == 0 {
							if doneAt == 0 {
								doneAt = reached
							}
							reached = doneAt
						}
						return splitWitness{stateDigest(t, s), reached, remaining}
					},
					Finish: func() splitWitness {
						done, err := s.RunUntilNVDLAsDoneCtx(context.Background(), spec.Limit)
						if err != nil {
							t.Fatalf("%v: run to completion: %v", spec, err)
						}
						if doneAt == 0 {
							doneAt = done
						}
						if !oracle {
							n.elided.Add(s.Queue.Elided())
							for _, o := range s.NVDLAs {
								n.ticks.Add(o.Stats().Ticks)
							}
						}
						return splitWitness{Hash: stateDigest(t, s), Reached: doneAt}
					},
				}
			})
		})
	}
}

// requireMostlyElided runs spec to completion and checks the mechanism by a
// count: at least 85% of the accelerators' cycles credited, not dispatched.
func requireMostlyElided(t *testing.T, spec RunSpec) {
	t.Helper()
	s, err := buildPoint(spec, soc.Oracles{})
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

// pmuSortSystem builds the Table 2 machine — one core, the PMU programmed
// over AXI with every event line enabled and the threshold on the cycle
// counter at thresh (0 disables it) — with a small sort benchmark started.
// oracle builds the per-cycle machine; a non-nil wave receives the PMU's
// waveform.
func pmuSortSystem(t *testing.T, thresh uint32, oracle bool, wave io.Writer) *soc.System {
	t.Helper()
	cfg := soc.DefaultConfig()
	cfg.Cores = 1
	cfg.WithPMU = true
	cfg.PMUWaveform, cfg.PMUWaveOut = wave != nil, wave
	s, err := soc.BuildWithOracles(cfg, soc.Oracles{PerCycle: oracle})
	if err != nil {
		t.Fatal(err)
	}
	host := NewAXIHost(s.Queue)
	port.Bind(host.p, s.PMU.CPUPort(0))
	s.PMU.Start()
	host.Write(pmu.RegEnable, 0x3F)
	host.Write(pmu.RegThreshSel, pmu.EvCycle)
	host.Write(pmu.RegThreshVal, thresh)
	if err := s.LoadProgram(0, workload.SortBenchmark(workload.SortParams{N: 16, SleepUs: 12})); err != nil {
		t.Fatal(err)
	}
	s.Cores[0].OnExit = func(int64) { s.Queue.ExitSimLoop("exit") }
	s.StartCores(0)
	return s
}

// pmuPhases runs the benchmark once and returns the ticks at which the core
// goes to sleep — the last commit before each gap of 6 µs or more — and the
// midpoint of each of its busy phases, the stretches of commits around
// those gaps.
func pmuPhases(t *testing.T) (sleeps, mids []sim.Tick) {
	t.Helper()
	s := pmuSortSystem(t, 0, true, nil)
	var first, last sim.Tick
	var wakes []sim.Tick
	tap := s.Cores[0].OnCommit
	s.Cores[0].OnCommit = func(n int) {
		if n > 0 {
			now := s.Queue.Now()
			switch {
			case first == 0:
				first = now
			case now-last >= 6*sim.Microsecond:
				sleeps = append(sleeps, last)
				wakes = append(wakes, now)
			}
			last = now
		}
		tap(n)
	}
	s.Queue.RunUntil(sim.MaxTick)
	if len(sleeps) != 3 {
		t.Fatalf("found %d sleeps in the sort benchmark, want 3", len(sleeps))
	}
	from := first
	for i, to := range append(sleeps, last) {
		mids = append(mids, from+(to-from)/2)
		if i < len(wakes) {
			from = wakes[i]
		}
	}
	return sleeps, mids
}

// pmuIRQEdges runs the per-cycle machine once at the given threshold and
// returns up to four of the ticks its PMU raises the interrupt at, spread
// over the run.
func pmuIRQEdges(t *testing.T, thresh uint32) []sim.Tick {
	t.Helper()
	s := pmuSortSystem(t, thresh, true, nil)
	var edges []sim.Tick
	var prev uint64
	irq := s.PMUWrapper.Model().OutputID("irq")
	s.PMUWrapper.TickHook = func(m *rtl.Model) {
		if v := m.PeekID(irq); v != prev {
			if v == 1 {
				edges = append(edges, s.Queue.Now())
			}
			prev = v
		}
	}
	s.Queue.RunUntil(sim.MaxTick)
	var picked []sim.Tick
	for i := 0; i < len(edges); i += (len(edges) + 3) / 4 {
		picked = append(picked, edges[i])
	}
	return picked
}

// pmuFoldedStretches runs the sleeping machine with its waveform on at the
// given threshold and returns, for up to four of the stretches its PMU
// sleeps through while the core commits — the taps folding into the sleep —
// the ticks of the stretch's first and last cycle and of a tap between
// them. A probe just after every PMU edge finds the edges the PMU owes.
func pmuFoldedStretches(t *testing.T, thresh uint32) []sim.Tick {
	t.Helper()
	const pmuEdge = sim.Tick(1000)
	s := pmuSortSystem(t, thresh, false, io.Discard)
	var bounds, taps []sim.Tick // bounds: first and last cycle of each stretch
	commit := s.Cores[0].OnCommit
	s.Cores[0].OnCommit = func(n int) {
		if n > 0 && s.PMU.Owed() > 0 {
			taps = append(taps, s.Queue.Now())
		}
		commit(n)
	}
	asleep := false
	var probe func()
	probe = func() {
		edge := s.Queue.Now() - 1
		if s.PMU.Owed() > 0 {
			if !asleep {
				bounds = append(bounds, edge, edge)
			}
			bounds[len(bounds)-1] = edge
		}
		asleep = s.PMU.Owed() > 0
		s.Queue.ScheduleFunc("probe", edge+pmuEdge+1, probe)
	}
	s.Queue.ScheduleFunc("probe", pmuEdge+1, probe)
	s.Queue.RunUntil(sim.MaxTick)
	// The stretches with a tap inside, and one of their taps each.
	var folded []sim.Tick
	for i, j := 0, 0; i+1 < len(bounds); i += 2 {
		for j < len(taps) && taps[j] < bounds[i] {
			j++
		}
		if j < len(taps) && taps[j] < bounds[i+1] && bounds[i+1]-bounds[i] > 2*pmuEdge {
			mid := j
			for mid+1 < len(taps) && taps[mid+1] < bounds[i]+(bounds[i+1]-bounds[i])/2 {
				mid++
			}
			folded = append(folded, bounds[i], bounds[i+1], taps[mid])
		}
	}
	if len(folded) == 0 {
		t.Fatalf("threshold %d: no stretch the taps fold into", thresh)
	}
	var picked []sim.Tick
	for i := 0; i < len(folded); i += 3 * ((len(folded)/3 + 3) / 4) {
		picked = append(picked, folded[i:i+3]...)
	}
	t.Logf("threshold %d: %d stretches the taps fold into; split at %v", thresh, len(folded)/3, picked)
	return picked
}

// pmuWitness is what a Table 2 machine shows at a split tick or at its end.
type pmuWitness struct {
	Hash uint64 // stateDigest
	VCD  uint64 // maphash of the PMU's waveform so far, if it writes one
}

// TestPMUSleepingMatchesPerCycleAtEverySplit is the split differential for
// the PMU's closed forms: at three thresholds (0, off: the stretch has no
// end; 1 000 and 10 000 cycles), split at every save tick of the ladder
// after each of four offsets — the start of the run and the start of each
// of the core's three sleeps, where the PMU is asleep — and its first 50 ns
// after the midpoint of each of the core's four busy phases, where the PMU
// is asleep with commits folding into its sleep, and at the ticks one PMU
// edge before and after some of its interrupt edges, the machine whose PMU
// sleeps serialises to the per-cycle machine's bytes at the split and at
// exit. A save wakes the PMU, so each split is a separate run
// (conform.Splits). The per-cycle machine is never asleep, so saving it
// changes nothing: one run hashes it, and digests its waveform, at every
// split. Each (waveform, threshold) pair is a parallel subtest, and each of
// its splits another.
//
// With the waveform on, where the PMU sleeps as it does without one and its
// stretches write their records from the taps' log, the splits also fall
// inside the busy phases' stretches — on the first and last cycle of some
// of those the taps fold into, and on a tap between them — and the sleeping
// machine must have written the per-cycle machine's VCD bytes at the split
// and at exit. That half runs at threshold 1 000 alone, whose interrupts
// cut the most stretches short: a waveform run costs three of the others.
func TestPMUSleepingMatchesPerCycleAtEverySplit(t *testing.T) {
	if testing.Short() {
		t.Skip("4 thresholds x 248 splits")
	}
	t.Parallel()
	sleeps, mids := pmuPhases(t)
	var ladder []sim.Tick
	for _, off := range append([]sim.Tick{0}, sleeps...) {
		for _, at := range sleepSplitTicks() {
			ladder = append(ladder, off+at)
		}
	}
	// In a busy phase, the ladder's first 50 ns: the edges around the
	// midpoint and the primes between them.
	for _, off := range mids {
		for _, at := range sleepSplitTicks()[:16] {
			ladder = append(ladder, off+at)
		}
	}
	for _, c := range []struct {
		wave   bool
		thresh uint32
	}{{false, 0}, {false, 1000}, {false, 10000}, {true, 1000}} {
		what := fmt.Sprintf("waveform %v, threshold %d", c.wave, c.thresh)
		t.Run(what, func(t *testing.T) {
			t.Parallel()
			const pmuEdge = sim.Tick(1000) // the PMU's clock period, 1 GHz
			splits := append([]sim.Tick(nil), ladder...)
			for _, at := range pmuIRQEdges(t, c.thresh) {
				splits = append(splits, at-pmuEdge, at, at+pmuEdge)
			}
			if c.wave {
				splits = append(splits, pmuFoldedStretches(t, c.thresh)...)
			}
			var n closedForm
			t.Cleanup(func() { n.report(t, what, "PMU") })
			conform.Splits(t, splits, func(t *testing.T, oracle bool) conform.Run[sim.Tick, pmuWitness] {
				var vcd maphash.Hash // the waveform, streamed into its digest
				vcd.SetSeed(digestSeed)
				var out io.Writer
				if c.wave {
					out = &vcd
				}
				s := pmuSortSystem(t, c.thresh, oracle, out)
				digest := func() pmuWitness {
					if c.wave {
						if err := s.PMUWrapper.Model().VCD().Flush(); err != nil {
							t.Fatal(err)
						}
					}
					return pmuWitness{stateDigest(t, s), vcd.Sum64()}
				}
				return conform.Run[sim.Tick, pmuWitness]{
					To: func(at sim.Tick) pmuWitness {
						s.Queue.RunUntil(at)
						return digest()
					},
					Finish: func() pmuWitness {
						s.Queue.RunUntil(sim.MaxTick)
						if !oracle {
							n.elided.Add(s.Queue.Elided())
							n.ticks.Add(s.PMU.Stats().Ticks)
						}
						return digest()
					},
				}
			})
		})
	}
}

// TestPMUFaultCampaignMatchesPerCycle: a state flip is a back door into a
// PMU that is asleep through the core's sleeps as often as not. Every fault
// of a campaign must be classified, with the same evidence, as it is on the
// machine that ticks the PMU every cycle.
func TestPMUFaultCampaignMatchesPerCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("two PMU campaigns")
	}
	t.Parallel()
	c := PMUCampaign{Seed: 5, Count: 8}
	got, err := Runner{Workers: 1}.PMUFaultCampaign(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Runner{Workers: 1, oracles: soc.Oracles{PerCycle: true}}.PMUFaultCampaign(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fault %d:\n sleeping  %+v\n per-cycle %+v", i, got[i], want[i])
		}
	}
}
