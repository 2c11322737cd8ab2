package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
	"time"

	"gem5rtl/internal/conform"
	"gem5rtl/internal/guard"
	"gem5rtl/internal/pmu"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/workload"
)

// pureSpec is one machine whose mid-run checkpoint must be a function of the
// machine alone. Each pinned digest was first taken from a bare run in a
// fresh process, one spec per process, on the commit that still kept a
// process-wide packet-ID counter and scheduled its host checks as events;
// the pins have moved since only where the stream format did (payload-free
// CPU packets and cache lines, then stream version 2).
type pureSpec struct {
	name string
	// checkpoint builds the machine and runs it to its split tick; guarded
	// attaches the watchdog and runs under ctx's deadline watch.
	checkpoint func(t *testing.T, ctx context.Context, guarded bool) *soc.System
	sha256     string
	stateHash  uint64 // conform.Digest
}

func pureSpecs() []pureSpec {
	return []pureSpec{
		{
			// Table 2's machine: one core running the sort benchmark, the
			// PMU programmed over AXI to interrupt every 10 000 cycles.
			name: "table2 sort n=60 @250us",
			checkpoint: func(t *testing.T, ctx context.Context, guarded bool) *soc.System {
				cfg := soc.DefaultConfig()
				cfg.Cores = 1
				cfg.WithPMU = true
				s := soc.MustBuild(cfg)
				host := NewAXIHost(s.Queue)
				port.Bind(host.Port(), s.PMU.CPUPort(0))
				s.PMU.Start()
				host.Write(pmu.RegEnable, 0x3F)
				host.Write(pmu.RegThreshSel, pmu.EvCycle)
				host.Write(pmu.RegThreshVal, 10000)
				if err := s.LoadProgram(0, workload.SortBenchmark(workload.SortParams{N: 60, SleepUs: 20})); err != nil {
					t.Fatal(err)
				}
				s.StartCores(0)
				if guarded {
					s.AttachWatchdog(guard.Config{})
					defer s.Queue.WatchContext(ctx, 0)()
				}
				s.Queue.RunUntil(250 * sim.Microsecond)
				return s
			},
			sha256:    "10d037b9411edb225baa7be94db556df0064ad83ba035beabc8573afd0c491f0",
			stateHash: 0x6cd42988239ab79f,
		},
		{
			name: "googlenet n=2 DDR4-1ch inflight=64 scale=1 @400us",
			checkpoint: func(t *testing.T, ctx context.Context, guarded bool) *soc.System {
				spec := DSEParams{Scale: 1, Limit: sim.Second}.Spec("googlenet", 2, "DDR4-1ch", 64)
				s, err := buildPoint(spec, soc.Oracles{})
				if err != nil {
					t.Fatal(err)
				}
				if guarded {
					s.AttachWatchdog(guard.Config{})
				}
				if _, _, err := s.RunNVDLAPhase(ctx, 400*sim.Microsecond); err != nil {
					t.Fatal(err)
				}
				return s
			},
			sha256:    "6174acaf241581f08e6b84bba2d1d7865424017fa108aa98a828731a71e36594",
			stateHash: 0x35905ee769371601,
		},
	}
}

func mustSave(t *testing.T, s *soc.System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// unrelatedRun is one of the runs the purity test interleaves with its
// specs: it alternates a small PMU sort and a small accelerator point, so
// between them they mint packet IDs from every kind of source.
func unrelatedRun(t *testing.T, i int) {
	if i%2 == 0 {
		if _, err := (Runner{}).runSortOnce(context.Background(), 4+i%5, 1, true, false); err != nil {
			t.Error(err)
		}
		return
	}
	spec := DSEParams{Scale: 64, Limit: sim.Second}.Spec("sanity3", 1+i%2, "DDR4-2ch", 16)
	if _, err := Run(context.Background(), spec); err != nil {
		t.Error(err)
	}
}

// TestRunIsPureFunctionOfSpec: a machine's checkpoint bytes, and the
// state digest of them, depend on the machine and nothing else — not
// on what the process ran before it, not on what other goroutines run beside
// it, and not on the host-side watchdog and deadline checks watching it.
// Each spec must reproduce its pinned fresh-process digests (a) now, (b)
// after 100 unrelated runs, (c) while two goroutines run other specs and (d)
// guarded under a deadline context.
func TestRunIsPureFunctionOfSpec(t *testing.T) {
	t.Parallel()
	specs := pureSpecs()
	check := func(t *testing.T, setting string, ps pureSpec, s *soc.System) {
		t.Helper()
		if got := fmt.Sprintf("%x", sha256.Sum256(mustSave(t, s))); got != ps.sha256 {
			t.Errorf("%s, %s: checkpoint sha256 %s, pinned %s", ps.name, setting, got, ps.sha256)
		}
		if got := conform.Digest(t, s); got != ps.stateHash {
			t.Errorf("%s, %s: state digest %016x, pinned %016x", ps.name, setting, got, ps.stateHash)
		}
	}
	bg := context.Background()

	for _, ps := range specs {
		check(t, "(a) against the fresh-process pin", ps, ps.checkpoint(t, bg, false))
	}

	for i := 0; i < 100; i++ {
		unrelatedRun(t, i)
	}
	for _, ps := range specs {
		check(t, "(b) after 100 unrelated runs", ps, ps.checkpoint(t, bg, false))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i += 2 {
				select {
				case <-stop:
					return
				default:
					unrelatedRun(t, i)
				}
			}
		}(g)
	}
	for _, ps := range specs {
		check(t, "(c) beside two goroutines of other runs", ps, ps.checkpoint(t, bg, false))
	}
	close(stop)
	wg.Wait()

	ctx, cancel := context.WithTimeout(bg, 10*time.Minute)
	defer cancel()
	for _, ps := range specs {
		check(t, "(d) guarded under a deadline", ps, ps.checkpoint(t, ctx, true))
	}
}
