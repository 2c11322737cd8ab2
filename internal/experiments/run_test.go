package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gem5rtl/internal/conform"
	"gem5rtl/internal/guard"
	"gem5rtl/internal/obs"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/stats"
)

// runGoldenEntry is one pinned point of testdata/run_golden.json, captured
// from the pre-refactor RunPoint/RunPointWarm/RunPointGuarded entry points
// before they were deleted. The three tick columns were equal then; the
// option-based Run must reproduce all three.
type runGoldenEntry struct {
	Spec         string   `json:"spec"`
	ColdTicks    sim.Tick `json:"cold_ticks"`
	WarmTicks    sim.Tick `json:"warm_ticks"`
	GuardedTicks sim.Tick `json:"guarded_ticks"`
}

// parseSpecString inverts RunSpec.String() for the golden file's keys.
func parseSpecString(t *testing.T, s string) RunSpec {
	t.Helper()
	var spec RunSpec
	if _, err := fmt.Sscanf(s, "%s n=%d %s inflight=%d scale=%d",
		&spec.Workload, &spec.NVDLAs, &spec.Memory, &spec.Inflight, &spec.Scale); err != nil {
		t.Fatalf("unparseable golden spec %q: %v", s, err)
	}
	spec.Limit = 8 * sim.Second
	return spec
}

// TestRunMatchesLegacyGolden pins the unified Run entry point against results
// captured from the deleted RunPoint, RunPointWarm and RunPointGuarded
// wrappers: the bare run, the run split by a checkpoint at 1 µs (runRestored)
// and the watchdog option must each reproduce the legacy tick counts
// bit-identically.
func TestRunMatchesLegacyGolden(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("testdata", "run_golden.json"))
	if err != nil {
		t.Fatalf("missing legacy golden file: %v", err)
	}
	var want []runGoldenEntry
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}

	t.Parallel()
	ctx := context.Background()
	const warmup = 1 * sim.Microsecond

	for _, entry := range want {
		spec := parseSpecString(t, entry.Spec)

		cold, err := Run(ctx, spec)
		if err != nil {
			t.Fatalf("%v: cold: %v", spec, err)
		}
		if cold != entry.ColdTicks {
			t.Errorf("%v: cold ticks %d, legacy RunPoint gave %d", spec, cold, entry.ColdTicks)
		}

		restored, _, err := runRestored(ctx, spec, warmup)
		if err != nil {
			t.Fatalf("%v: restored: %v", spec, err)
		}
		if restored != entry.WarmTicks {
			t.Errorf("%v: restored ticks %d, legacy RunPointWarm gave %d", spec, restored, entry.WarmTicks)
		}

		guarded, err := Run(ctx, spec, WithWatchdog(guard.Config{}))
		if err != nil {
			t.Fatalf("%v: guarded: %v", spec, err)
		}
		if guarded != entry.GuardedTicks {
			t.Errorf("%v: guarded ticks %d, legacy RunPointGuarded gave %d",
				spec, guarded, entry.GuardedTicks)
		}
	}
}

// TestRunOptionComposition exercises the full split × guard × observability
// × deadline-context matrix on one point: every option subset, run unsplit
// or split by a checkpoint (runRestored), bare or under a deadline as every
// sweep-service point is, must reproduce the bare Run's tick count and the
// bare run's final state digest. The watchdog and the context watch poll the
// run loop instead of scheduling events, so neither leaves a mark on the
// machine.
func TestRunOptionComposition(t *testing.T) {
	t.Parallel()
	spec := DSEParams{Scale: 64, Limit: 8 * sim.Second}.Spec("sanity3", 1, "DDR4-1ch", 16)
	refTicks, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	_, ref, err := runRestored(context.Background(), spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	refHash := conform.Digest(t, ref)

	for _, split := range []bool{false, true} {
		for _, guarded := range []bool{false, true} {
			for _, observed := range []bool{false, true} {
				name := fmt.Sprintf("split=%v/guard=%v/obs=%v", split, guarded, observed)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					for _, deadline := range []bool{false, true} {
						t.Run(fmt.Sprintf("deadline=%v", deadline), func(t *testing.T) {
							ctx := context.Background()
							if deadline {
								c, cancel := context.WithTimeout(ctx, time.Hour)
								defer cancel()
								ctx = c
							}
							runComposed(t, ctx, spec, split, guarded, observed, refTicks, refHash)
						})
					}
				})
			}
		}
	}
}

// runComposed is one cell of TestRunOptionComposition.
func runComposed(t *testing.T, ctx context.Context, spec RunSpec, split, guarded, observed bool, refTicks sim.Tick, refHash uint64) {
	var warmup sim.Tick
	if split {
		warmup = 1 * sim.Microsecond
	}
	var opts []Option
	if guarded {
		opts = append(opts, WithWatchdog(guard.Config{}))
	}
	var samples []stats.Sample
	if observed {
		opts = append(opts, WithTracer(obs.Config{}),
			WithStats(func(s []stats.Sample) { samples = s }))
	}
	ticks, s, err := runRestored(ctx, spec, warmup, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if ticks != refTicks {
		t.Errorf("ticks %d, bare run gave %d", ticks, refTicks)
	}
	if hash := conform.Digest(t, s); hash != refHash {
		t.Errorf("state digest %016x, bare run gave %016x", hash, refHash)
	}
	if observed && len(samples) == 0 {
		t.Error("WithStats sink received no samples")
	}
}

// TestRunCancelledContext checks that a pre-cancelled context aborts before
// any simulation work.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := DSEParams{Scale: 64, Limit: 8 * sim.Second}.Spec("sanity3", 1, "DDR4-1ch", 16)
	if _, err := Run(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
