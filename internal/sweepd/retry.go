package sweepd

import (
	"context"
	"errors"
	"time"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/guard"
)

// RetryPolicy tunes the transient-failure retry loop. The zero value selects
// the defaults.
//
// Failures of experiments.Run split into a two-class taxonomy (see
// classify): permanent failures (an invalid spec, a build that cannot
// succeed — experiments.PermanentError) are quarantined on the first
// attempt, while everything else — a watchdog hang, a blown per-point
// deadline, a recovered worker panic, a chaos-injected fault — is presumed
// transient and retried up to MaxAttempts total executions before the point
// is quarantined as poison.
type RetryPolicy struct {
	// MaxAttempts is the total execution budget per point, including the
	// first attempt (0 = DefaultMaxAttempts). 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further retry
	// doubles it (0 = DefaultBaseDelay).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (0 = DefaultMaxDelay).
	MaxDelay time.Duration
	// Seed feeds the deterministic jitter stream. Two servers with the same
	// seed compute identical per-point retry schedules at any worker count.
	Seed uint64
}

// Retry policy defaults: three total attempts, 100 ms first backoff doubling
// to a 5 s cap.
const (
	DefaultMaxAttempts = 3
	DefaultBaseDelay   = 100 * time.Millisecond
	DefaultMaxDelay    = 5 * time.Second
)

// withDefaults fills zero fields with the default policy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = DefaultBaseDelay
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = DefaultMaxDelay
	}
	return p
}

// Delay returns the backoff before re-queueing point fp after its attempt-th
// failed execution (1-based). The schedule is exponential with equal jitter:
// the envelope doubles per attempt up to MaxDelay, and the delay lands
// uniformly in [envelope/2, envelope]. The jitter stream is splitmix64
// seeded from (Seed, fp, attempt) via guard.DeriveSeed/DeriveSeedString, so
// the full schedule of every point is a pure function of the policy — the
// same at one worker or sixty-four, reproducible from the seed alone.
func (p RetryPolicy) Delay(fp string, attempt int) time.Duration {
	p = p.withDefaults()
	env := p.BaseDelay
	for i := 1; i < attempt && env < p.MaxDelay; i++ {
		env *= 2
	}
	if env > p.MaxDelay {
		env = p.MaxDelay
	}
	rng := guard.NewRNG(guard.DeriveSeed(guard.DeriveSeedString(p.Seed, fp), attempt))
	half := uint64(env / 2)
	return time.Duration(half + rng.Uint64n(half+1))
}

// failureClass is the service-side classification of one failed execution.
type failureClass int

const (
	// classTransient failures spend a retry attempt: hangs, deadlines,
	// panics, injected faults — anything a healthy re-execution might clear.
	classTransient failureClass = iota
	// classPermanent failures quarantine immediately: retrying an
	// experiments.PermanentError burns work without hope.
	classPermanent
	// classCancelled marks scheduling artefacts (server shutdown cancelling
	// the executor context); the point fails without retry or quarantine, so
	// a resubmission after restart simulates it fresh.
	classCancelled
)

// classify maps an executor error into the taxonomy. The per-point deadline
// surfaces as context.DeadlineExceeded and classifies transient — a point
// that timed out on a loaded worker may finish on a quiet one; if it never
// does, the attempt budget converts it into quarantine.
func classify(err error) failureClass {
	var panicked *experiments.PanicError
	switch {
	case errors.As(err, &panicked):
		// A recovered panic is a diverging run, not a verdict on the spec.
		return classTransient
	case errors.Is(err, context.Canceled):
		return classCancelled
	case experiments.IsPermanent(err):
		return classPermanent
	default:
		return classTransient
	}
}
