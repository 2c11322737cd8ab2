package sweepd

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/guard"
	"gem5rtl/internal/sim"
)

// soakSpecs is the chaos batch: 12 technology points over 4 memories, which
// drag in 3 hidden ideal baselines (inflight varies, ideal dedups per shape).
func soakSpecs() []experiments.RunSpec {
	var specs []experiments.RunSpec
	for _, inflight := range []int{1, 16, 64} {
		for _, mem := range []string{"DDR4-1ch", "DDR4-4ch", "HBM", "GDDR5"} {
			specs = append(specs, testSpec(mem, inflight))
		}
	}
	return specs
}

// soakChaos is the fault mix the soak runs under: every fault class enabled,
// hot enough that most points fail at least once.
func soakChaos(seed uint64, storeDir string) *Chaos {
	return &Chaos{
		Seed: seed, PanicProb: 0.2, HangProb: 0.15, ErrProb: 0.25,
		TornWriteProb: 0.1, HangMax: 2 * time.Millisecond, StoreDir: storeDir,
	}
}

// runSoak drives one chaos soak: the batch submitted as three overlapping
// jobs from different clients, every job awaited. It returns the server, its
// chaos wrapper, and the sorted fingerprint partition (stored, poisoned).
func runSoak(t *testing.T, workers int, seed uint64, storeDir string) (*Server, *Chaos, []string, []string) {
	t.Helper()
	c := soakChaos(seed, storeDir)
	s, err := New(Config{
		Workers: workers, StoreDir: storeDir,
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: seed},
		RunPoint: c.Wrap(func(ctx context.Context, spec experiments.RunSpec) (sim.Tick, error) {
			return fakeTicks(spec), nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	specs := soakSpecs()
	batches := [][]experiments.RunSpec{specs[:8], specs[4:], specs} // overlapping
	jobs := make([]*job, len(batches))
	for i, b := range batches {
		j, err := s.sched.submit(s.store, SubmitRequest{Client: fmt.Sprintf("client-%d", i), Specs: b}, 0)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for _, j := range jobs {
		waitDone(t, j)
	}

	// Invariant: every submitted point reached exactly one terminal state —
	// it is either stored (simulated successfully, exactly once) or poisoned
	// (quarantined), never both, never neither, never still live.
	var stored, poisoned []string
	for _, spec := range specs {
		for _, sp := range []experiments.RunSpec{spec, spec.Baseline()} {
			fp := sp.Fingerprint()
			_, inStore := s.store.Get(fp)
			_, inPoison := s.poison.Get(fp)
			if inStore == inPoison {
				t.Errorf("point %s: stored=%v poisoned=%v, want exactly one terminal state", fp[:8], inStore, inPoison)
			}
			if inStore {
				stored = append(stored, fp)
			} else {
				poisoned = append(poisoned, fp)
			}
		}
	}
	sort.Strings(stored)
	sort.Strings(poisoned)
	stored = dedupSorted(stored)
	poisoned = dedupSorted(poisoned)

	// Invariant: the attempt budget bounds executions of every point.
	c.mu.Lock()
	for fp, att := range c.attempts {
		if att > 3 {
			t.Errorf("point %s executed %d times, budget is 3", fp[:8], att)
		}
	}
	c.mu.Unlock()

	// Invariant: every job's results are complete, each point settled as a
	// value or an error.
	for _, j := range jobs {
		results, ok := s.sched.results(j)
		if !ok || len(results) != len(j.specs) {
			t.Fatalf("job %s: results ok=%v len=%d, want %d", j.id, ok, len(results), len(j.specs))
		}
		for i, r := range results {
			value := r.Err == "" && r.Ticks > 0
			failure := r.Err != "" && r.Ticks == 0
			if value == failure {
				t.Errorf("job %s result[%d] = %+v: neither a clean value nor a clean failure", j.id, i, r)
			}
		}
	}
	if c.Injected() == 0 {
		t.Error("chaos injected nothing; the soak proved nothing")
	}
	return s, c, stored, poisoned
}

func dedupSorted(in []string) []string {
	out := in[:0]
	for i, s := range in {
		if i == 0 || in[i-1] != s {
			out = append(out, s)
		}
	}
	return out
}

// TestChaosSoakInvariants is the seeded chaos soak: panics, hangs, transient
// failures and torn store writes injected against the full retry/quarantine
// machinery, with the no-point-lost/no-double-charge invariants checked after
// the dust settles — and the terminal partition reproduced exactly by a
// second server with eight times the workers, proving the fault script and
// retry schedule are worker-count independent.
func TestChaosSoakInvariants(t *testing.T) {
	const seed = 0xdecaf
	s1, c1, stored1, poisoned1 := runSoak(t, 1, seed, t.TempDir())
	defer s1.Close()

	// Double-charge check: resubmitting the whole batch touches no worker —
	// stored points serve from the store, poisoned points serve their
	// quarantine error.
	sumAttempts := func() int {
		c1.mu.Lock()
		defer c1.mu.Unlock()
		total := 0
		for _, att := range c1.attempts {
			total += att
		}
		return total
	}
	attemptsBefore := sumAttempts()
	j, err := s1.sched.submit(s1.store, SubmitRequest{Client: "replay", Specs: soakSpecs()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if after := sumAttempts(); after != attemptsBefore {
		t.Errorf("replay double-charged %d executions on already-settled points", after-attemptsBefore)
	}
	results, _ := s1.sched.results(j)
	for _, r := range results {
		if r.Err != "" && !strings.Contains(r.Err, "quarantined") {
			t.Errorf("replay error %q is not a served quarantine record", r.Err)
		}
	}

	s8, _, stored8, poisoned8 := runSoak(t, 8, seed, t.TempDir())
	defer s8.Close()
	if !equalStrings(stored1, stored8) || !equalStrings(poisoned1, poisoned8) {
		t.Errorf("terminal partition differs across worker counts:\n1 worker:  %d stored / %d poisoned\n8 workers: %d stored / %d poisoned",
			len(stored1), len(poisoned1), len(stored8), len(poisoned8))
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestChaosSoakRestartHealsTornWrites closes the loop on storage chaos: the
// soak's torn writes silently corrupt committed result files, a restarted
// server's boot scan quarantines exactly the damage, and — after the poison
// records are cleared — a healthy resubmission re-simulates what was lost
// and ends with every point clean. No file the chaos tore is ever served.
func TestChaosSoakRestartHealsTornWrites(t *testing.T) {
	dir := t.TempDir()
	s1, _, stored, _ := runSoak(t, 4, 0xc0ffee, dir)
	s1.Close()

	s2, err := New(Config{Workers: 4, StoreDir: dir,
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
		RunPoint: func(ctx context.Context, spec experiments.RunSpec) (sim.Tick, error) {
			return fakeTicks(spec), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.Start()

	// The boot scan accounts for every previously stored point: loaded
	// intact or quarantined as corrupt, nothing silently dropped.
	if got := s2.store.Len() + s2.store.Quarantined(); got < len(stored) {
		t.Errorf("restart accounts for %d of %d stored results (len=%d quarantined=%d)",
			got, len(stored), s2.store.Len(), s2.store.Quarantined())
	}
	// Every surviving entry passed the integrity gate: its spec hashes to
	// its fingerprint and its ticks match the deterministic executor.
	for _, fp := range stored {
		if e, ok := s2.store.Get(fp); ok {
			if e.Spec.Fingerprint() != fp || e.Ticks != fakeTicks(e.Spec) {
				t.Errorf("restart loaded a corrupt entry for %s: %+v", fp[:8], e)
			}
		}
	}

	// Heal: clear the poison, resubmit everything against a now-healthy
	// executor. Torn entries re-simulate, quarantined points get their fresh
	// attempt budget, and the batch converges to all-clean.
	for _, rec := range s2.poison.List() {
		s2.poison.Remove(rec.Fingerprint)
	}
	j, err := s2.sched.submit(s2.store, SubmitRequest{Client: "heal", Specs: soakSpecs()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	results, _ := s2.sched.results(j)
	for i, r := range results {
		if r.Err != "" || r.Perf != 0.5 {
			t.Errorf("healed result[%d] = %+v, want clean perf=0.5", i, r)
		}
	}
}

// TestChaosRealExecutorSmoke runs chaos over the real experiments.Run
// executor: injected panics and transient failures retry into real
// simulations, and every stored result matches a clean re-run of the same
// spec — the chaos layer can delay or quarantine a point but never corrupt
// a value that gets served.
func TestChaosRealExecutorSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations are not -short friendly")
	}
	specs := []experiments.RunSpec{
		testSpec("HBM", 16), testSpec("DDR4-1ch", 16),
		testSpec("HBM", 64), testSpec("DDR4-1ch", 64),
	}
	s, err := New(Config{
		Workers: 4, StoreDir: t.TempDir(),
		Retry: RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 11},
		RunPoint: (&Chaos{Seed: 11, PanicProb: 0.2, ErrProb: 0.3}).Wrap(
			func(ctx context.Context, spec experiments.RunSpec) (sim.Tick, error) {
				return experiments.Run(ctx, spec)
			}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Start()

	j, err := s.sched.submit(s.store, SubmitRequest{Specs: specs}, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	for _, spec := range specs {
		for _, sp := range []experiments.RunSpec{spec, spec.Baseline()} {
			fp := sp.Fingerprint()
			e, inStore := s.store.Get(fp)
			_, inPoison := s.poison.Get(fp)
			if inStore == inPoison {
				t.Errorf("real point %s: stored=%v poisoned=%v, want exactly one", fp[:8], inStore, inPoison)
			}
			if !inStore {
				continue
			}
			want, err := experiments.Run(context.Background(), sp)
			if err != nil {
				t.Fatalf("clean re-run of %v: %v", sp, err)
			}
			if e.Ticks != want {
				t.Errorf("stored ticks for %s = %d, clean run = %d: chaos corrupted a served value",
					fp[:8], e.Ticks, want)
			}
		}
	}
}

// Chaos is the seeded fault-injecting executor wrapper behind the soak
// tests: it wraps a per-point executor handed to the server as
// Config.RunPoint and, per execution attempt, draws from a splitmix64 stream whether to
// panic, hang, fail transiently or tear a committed result file — the same
// fault surface a real deployment shows, on demand and reproducible from one
// seed.
//
// The injection decision for attempt k of point fp is a pure function of
// (Seed, fp, k) — the same derivation chain as RetryPolicy.Delay — so a soak
// run injects an identical fault script at any worker count.
type Chaos struct {
	// Seed selects the fault script. Two Chaos instances with equal seeds
	// and probabilities inject identical faults per (point, attempt).
	Seed uint64
	// PanicProb is the per-attempt probability of panicking mid-execution
	// (exercises the worker's panic recovery and the retry loop).
	PanicProb float64
	// HangProb is the per-attempt probability of hanging until the
	// per-point deadline (or HangMax, whichever first) instead of running.
	HangProb float64
	// ErrProb is the per-attempt probability of failing with an injected
	// transient error.
	ErrProb float64
	// TornWriteProb is the per-attempt probability of tearing (truncating or
	// garbling) one committed result file in StoreDir — silent on-disk
	// corruption the next boot's integrity scan must quarantine.
	TornWriteProb float64
	// HangMax caps an injected hang on executors without a deadline
	// (0 = 50ms), so a chaos soak cannot wedge.
	HangMax time.Duration
	// StoreDir aims the torn-write fault. Empty disables it regardless of
	// probability.
	StoreDir string

	mu       sync.Mutex
	attempts map[string]int // executions seen per fingerprint
	injected atomic.Uint64
}

// Injected reports how many faults the wrapper has injected so far (soak
// tests assert the chaos actually bit).
func (c *Chaos) Injected() uint64 { return c.injected.Load() }

// chance consumes one draw from the stream and succeeds with probability p.
func chance(rng *guard.RNG, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return rng.Uint64n(1<<32) < uint64(p*float64(uint64(1)<<32))
}

// Wrap returns an executor that injects faults in front of next. The
// attempt counter is per fingerprint, so a retried point faces a fresh draw
// each attempt and a finite fault script cannot quarantine every point
// forever (unless the probabilities say so).
func (c *Chaos) Wrap(next func(ctx context.Context, spec experiments.RunSpec) (sim.Tick, error)) func(ctx context.Context, spec experiments.RunSpec) (sim.Tick, error) {
	c.mu.Lock()
	if c.attempts == nil {
		c.attempts = map[string]int{}
	}
	c.mu.Unlock()
	return func(ctx context.Context, spec experiments.RunSpec) (sim.Tick, error) {
		fp := spec.Fingerprint()
		c.mu.Lock()
		c.attempts[fp]++
		att := c.attempts[fp]
		c.mu.Unlock()
		rng := guard.NewRNG(guard.DeriveSeed(guard.DeriveSeedString(c.Seed, fp), att))

		// The storage fault fires alongside the execution: it corrupts state
		// at rest without failing this attempt, exactly like real bit rot.
		if c.StoreDir != "" && chance(rng, c.TornWriteProb) {
			c.tearStoreFile(rng)
		}
		switch {
		case chance(rng, c.PanicProb):
			c.injected.Add(1)
			panic(fmt.Sprintf("chaos: injected panic (%s attempt %d)", fp[:8], att))
		case chance(rng, c.HangProb):
			c.injected.Add(1)
			hangMax := c.HangMax
			if hangMax <= 0 {
				hangMax = 50 * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(hangMax):
				return 0, fmt.Errorf("chaos: injected hang released (%s attempt %d)", fp[:8], att)
			}
		case chance(rng, c.ErrProb):
			c.injected.Add(1)
			return 0, fmt.Errorf("chaos: injected transient failure (%s attempt %d)", fp[:8], att)
		}
		return next(ctx, spec)
	}
}

// tearStoreFile truncates or garbles one committed result file, simulating a
// torn write that slipped past the process (firmware lies, media rot). The
// damage is exercised by the next boot's integrity scan.
func (c *Chaos) tearStoreFile(rng *guard.RNG) {
	c.corrupt(rng, c.StoreDir, ".json", func(buf []byte) []byte {
		if rng.Uint64n(2) == 0 {
			return buf[:int(rng.Uint64n(uint64(len(buf))))]
		}
		buf[rng.Intn(len(buf))] ^= 0xff
		return buf
	})
}

// corrupt rewrites one non-empty file drawn from dir (see pickFile) with
// damage applied, and counts the injection.
func (c *Chaos) corrupt(rng *guard.RNG, dir, suffix string, damage func([]byte) []byte) {
	name, ok := pickFile(rng, dir, suffix)
	if !ok {
		return
	}
	path := filepath.Join(dir, name)
	buf, err := os.ReadFile(path)
	if err != nil || len(buf) == 0 {
		return
	}
	if os.WriteFile(path, damage(buf), 0o644) == nil {
		c.injected.Add(1)
	}
}

// pickFile draws one regular file (with the given suffix, if any) from dir.
func pickFile(rng *guard.RNG, dir, suffix string) (string, bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", false
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		if suffix != "" && !strings.HasSuffix(e.Name(), suffix) {
			continue
		}
		names = append(names, e.Name())
	}
	if len(names) == 0 {
		return "", false
	}
	return names[rng.Intn(len(names))], true
}
