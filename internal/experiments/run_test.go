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
// wrappers: the bare run, the warm-start option (both the populating pass and
// the restoring pass) and the watchdog option must each reproduce the legacy
// tick counts bit-identically.
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

		cache := NewCheckpointCache("")
		populate, err := Run(ctx, spec, WithWarmStart(warmup, cache))
		if err != nil {
			t.Fatalf("%v: warm populate: %v", spec, err)
		}
		restore, err := Run(ctx, spec, WithWarmStart(warmup, cache))
		if err != nil {
			t.Fatalf("%v: warm restore: %v", spec, err)
		}
		if populate != entry.WarmTicks || restore != entry.WarmTicks {
			t.Errorf("%v: warm ticks populate=%d restore=%d, legacy RunPointWarm gave %d",
				spec, populate, restore, entry.WarmTicks)
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

// TestRunOptionComposition exercises the full warm × guard × observability
// × deadline-context matrix on one point: every option subset, run bare or
// under a deadline as every sweep-service point is, must reproduce the bare
// run's tick count and state hash, and every combination must hash
// identically across its own passes (the warm restore-equivalence witness).
// The watchdog and the context watch poll the run loop instead of
// scheduling events, so neither leaves a mark on the machine.
func TestRunOptionComposition(t *testing.T) {
	t.Parallel()
	spec := DSEParams{Scale: 64, Limit: 8 * sim.Second}.Spec("sanity3", 1, "DDR4-1ch", 16)
	var refHash uint64
	refTicks, err := Run(context.Background(), spec, WithStateHash(&refHash))
	if err != nil {
		t.Fatal(err)
	}
	if refHash == 0 {
		t.Fatal("reference state hash not populated")
	}

	for _, warm := range []bool{false, true} {
		for _, guarded := range []bool{false, true} {
			for _, observed := range []bool{false, true} {
				name := fmt.Sprintf("warm=%v/guard=%v/obs=%v", warm, guarded, observed)
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
							runComposed(t, ctx, spec, warm, guarded, observed, refTicks, refHash)
						})
					}
				})
			}
		}
	}
}

// runComposed is one cell of TestRunOptionComposition: two passes of spec
// under the given options, so the warm configurations cover both the
// populating (miss) and restoring (hit) paths.
func runComposed(t *testing.T, ctx context.Context, spec RunSpec, warm, guarded, observed bool, refTicks sim.Tick, refHash uint64) {
	const warmup = 1 * sim.Microsecond
	var cache *CheckpointCache
	if warm {
		cache = NewCheckpointCache("")
	}
	for pass := 0; pass < 2; pass++ {
		var opts []Option
		if warm {
			opts = append(opts, WithWarmStart(warmup, cache))
		}
		if guarded {
			opts = append(opts, WithWatchdog(guard.Config{}))
		}
		var samples []stats.Sample
		if observed {
			opts = append(opts, WithTracer(obs.Config{}),
				WithStats(func(s []stats.Sample) { samples = s }))
		}
		var hash uint64
		opts = append(opts, WithStateHash(&hash))

		ticks, err := Run(ctx, spec, opts...)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if ticks != refTicks {
			t.Errorf("pass %d: ticks %d, bare run gave %d", pass, ticks, refTicks)
		}
		if hash != refHash {
			t.Errorf("pass %d: state hash %016x, bare run gave %016x", pass, hash, refHash)
		}
		if observed && len(samples) == 0 {
			t.Errorf("pass %d: WithStats sink received no samples", pass)
		}
	}
	if warm {
		cs := cache.Stats()
		if cs.Misses != 1 || cs.Hits != 1 {
			t.Errorf("cache stats %+v, want exactly one miss then one hit", cs)
		}
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

// TestCacheStatsStale checks the stale counter: an unrestorable snapshot is
// dropped, counted, and the point falls back to a cold populate.
func TestCacheStatsStale(t *testing.T) {
	spec := DSEParams{Scale: 64, Limit: 8 * sim.Second}.Spec("sanity3", 1, "DDR4-1ch", 16)
	const warmup = 1 * sim.Microsecond
	cache := NewCheckpointCache("")
	cache.store(spec, warmup, []byte("garbage"))
	if _, err := Run(context.Background(), spec, WithWarmStart(warmup, cache)); err != nil {
		t.Fatal(err)
	}
	cs := cache.Stats()
	if cs.Stale != 1 || cs.Hits != 0 {
		t.Errorf("cache stats %+v, want one stale drop and no hits", cs)
	}
}
