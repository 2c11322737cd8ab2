package sweepd

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/guard"
	"gem5rtl/internal/sim"
)

// Chaos is the seeded fault-injecting executor wrapper behind the soak
// tests: it wraps the server's composed per-point executor (Config.Chaos)
// and, per execution attempt, draws from a splitmix64 stream whether to
// panic, hang, fail transiently, tear a committed result file, or bit-flip a
// persisted checkpoint — the same fault surface a real deployment shows, on
// demand and reproducible from one seed.
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
	// CkptFlipProb is the per-attempt probability of flipping one bit in a
	// persisted checkpoint file in CkptDir — caught by the snapshot CRC
	// trailer, degrading that point to a counted cold run.
	CkptFlipProb float64
	// HangMax caps an injected hang on executors without a deadline
	// (0 = 50ms), so a chaos soak cannot wedge.
	HangMax time.Duration
	// StoreDir / CkptDir aim the torn-write and bit-flip faults. Empty
	// disables the respective fault regardless of probability.
	StoreDir, CkptDir string

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

		// Storage faults fire alongside the execution: they corrupt state at
		// rest without failing this attempt, exactly like real bit rot.
		if c.StoreDir != "" && chance(rng, c.TornWriteProb) {
			c.tearStoreFile(rng)
		}
		if c.CkptDir != "" && chance(rng, c.CkptFlipProb) {
			c.flipCkptFile(rng)
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

// flipCkptFile flips one bit in one persisted checkpoint file; the snapshot
// CRC trailer must catch it and degrade the affected point to a cold run.
func (c *Chaos) flipCkptFile(rng *guard.RNG) {
	c.corrupt(rng, c.CkptDir, "", func(buf []byte) []byte {
		buf[rng.Intn(len(buf))] ^= 1 << rng.Uint64n(8)
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
