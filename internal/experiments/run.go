package experiments

import (
	"bytes"
	"context"
	"fmt"

	"gem5rtl/internal/guard"
	"gem5rtl/internal/obs"
	"gem5rtl/internal/prof"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/stats"
)

// Option configures one Run call. Options compose: warm-start, liveness
// guarding and observability are independent axes, and any subset may be
// active on the same point. The former RunPoint/RunPointWarm/RunPointGuarded
// entry points are exactly Run with zero or one option.
type Option func(*runOpts)

type runOpts struct {
	warmup    sim.Tick
	cache     *CheckpointCache
	guard     *guard.Config
	trace     *obs.Config
	stateHash *uint64
	statsSink func([]stats.Sample)
	profEvery int
	profSink  func(*prof.Report)
	events    *uint64
}

// WithWarmStart turns the run into a warm-start point against cache: the
// first execution of a spec snapshots the full system at the warmup tick and
// later executions restore the snapshot and simulate only the remainder.
// Results are bit-identical either way (the soc restore-equivalence
// property). A zero warmup or nil cache leaves the run cold.
func WithWarmStart(warmup sim.Tick, cache *CheckpointCache) Option {
	return func(o *runOpts) {
		o.warmup = warmup
		o.cache = cache
	}
}

// WithWatchdog attaches a liveness watchdog with the given configuration, so
// a hung point surfaces as a *guard.HangError instead of idling to the time
// limit. The watchdog polls the run loop instead of scheduling events, so an
// untripped guarded run is the bare run's machine: same ticks, dispatch
// count, StateHash and warm-start snapshot.
func WithWatchdog(cfg guard.Config) Option {
	return func(o *runOpts) { o.guard = &cfg }
}

// WithTracer attaches a debug-flag tracer to the point's system (see
// obs.Config). Tracing is observational: a traced run dispatches the same
// events at the same ticks as an untraced one.
func WithTracer(cfg obs.Config) Option {
	return func(o *runOpts) { o.trace = &cfg }
}

// WithStateHash stores the post-run full-system state digest (soc.StateHash)
// into dst — the bit-identity witness tests and the sweep service use to
// prove two execution paths produced the same machine.
func WithStateHash(dst *uint64) Option {
	return func(o *runOpts) { o.stateHash = dst }
}

// WithStats delivers the point's final statistics (sorted, deterministic) to
// sink after the run completes.
func WithStats(sink func([]stats.Sample)) Option {
	return func(o *runOpts) { o.statsSink = sink }
}

// WithSelfProfile attaches the event-kernel self-profiler to the point's
// system (soc.AttachSelfProfiler; every <= 0 selects the default clock-read
// cadence) and delivers the per-component attribution report to sink after
// the run completes. The report's event counts are exact and deterministic;
// its host-time shares are sampled wall time. Profiling is observational:
// the simulated machine and its final stats are byte-identical either way.
// The checkpoint stream — and therefore StateHash, which digests it — gains
// the exact event-count attribution table when profiling is on, so a
// warm-start restore continues the prefix's attribution; the hash stays
// deterministic in both modes.
// Under warm-start the checkpoint carries the warm-up prefix's event counts,
// so a restore run's attribution equals the uninterrupted run's exactly.
func WithSelfProfile(every int, sink func(*prof.Report)) Option {
	return func(o *runOpts) {
		o.profEvery = every
		o.profSink = sink
	}
}

// withEvents stores the number of events the point's queue dispatched into
// dst (Result.Events).
func withEvents(dst *uint64) Option {
	return func(o *runOpts) { o.events = dst }
}

// Run executes one simulation point: n accelerator instances, each running
// its own copy of the workload trace (the paper's setup), on the named
// memory technology with the given in-flight cap. Cancelling ctx aborts the
// event loop promptly and returns ctx.Err(). Options layer warm-start
// checkpointing, liveness guarding and observability onto the same run; see
// WithWarmStart, WithWatchdog, WithTracer, WithStateHash, WithStats.
//
// Under warm start a cache hit builds a fresh system, restores the snapshot
// and simulates only the remainder; a miss runs the warm-up prefix from tick
// 0, snapshots the full system at the warmup tick, then finishes the run. A
// snapshot that fails to restore (a stale file persisted by an older build)
// is dropped and the point transparently falls back to a cold run.
func Run(ctx context.Context, spec RunSpec, opts ...Option) (sim.Tick, error) {
	o := resolve(opts)
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	warm := o.warmup > 0 && o.cache != nil
	if warm {
		if blob, ok := o.cache.load(spec, o.warmup); ok {
			s, err := soc.Build(specConfig(spec))
			if err == nil {
				err = o.attach(s)
			}
			if err != nil {
				return 0, Permanent(err)
			}
			if _, err := s.Restore(bytes.NewReader(blob)); err == nil {
				o.cache.countHit()
				return o.complete(ctx, s, spec.Limit)
			}
			o.cache.countStale()
			o.cache.drop(spec, o.warmup)
		}
	}
	s, err := buildPoint(spec, soc.Oracles{})
	if err == nil {
		err = o.attach(s)
	}
	if err != nil {
		// A point that cannot build will not build on a retry either.
		return 0, Permanent(err)
	}
	if warm {
		done, remaining, err := s.RunNVDLAPhase(ctx, o.warmup)
		if err != nil || remaining == 0 {
			// A failed prefix, or one that finished inside the warm-up
			// window: nothing worth snapshotting.
			if err := o.finish(s, err); err != nil {
				return 0, err
			}
			return done, nil
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			return 0, fmt.Errorf("experiments: warm-start snapshot for %v: %w", spec, err)
		}
		o.cache.store(spec, o.warmup, buf.Bytes())
	}
	return o.complete(ctx, s, spec.Limit)
}

// resolve applies the option lists in order; a later option overrides an
// earlier one on the same axis.
func resolve(lists ...[]Option) *runOpts {
	o := &runOpts{}
	for _, opts := range lists {
		for _, opt := range opts {
			opt(o)
		}
	}
	return o
}

// attach wires the pre-run observability and guarding options into a built
// system. It is the one place a run's self-profiler and watchdog attach.
func (o *runOpts) attach(s *soc.System) error {
	if o.trace != nil {
		if _, err := s.AttachTracer(*o.trace); err != nil {
			return err
		}
	}
	if o.profSink != nil {
		// Attached before a restore, the profiler folds the snapshot's
		// attribution counts straight in.
		s.AttachSelfProfiler(o.profEvery)
	}
	if o.guard != nil {
		s.AttachWatchdog(*o.guard)
	}
	return nil
}

// finish closes a run that ended with err: its dispatched events join the
// host-wide count whatever the outcome, and a run that succeeded feeds the
// post-run sinks. It returns err, or the first sink failure.
func (o *runOpts) finish(s *soc.System, err error) error {
	obs.CountEvents(s.Queue.Dispatched())
	if err != nil {
		return err
	}
	if o.stateHash != nil {
		h, err := s.StateHash()
		if err != nil {
			return fmt.Errorf("experiments: post-run state hash: %w", err)
		}
		*o.stateHash = h
	}
	if o.statsSink != nil {
		o.statsSink(s.Stats.SnapshotSorted())
	}
	if o.profSink != nil {
		o.profSink(prof.FromQueue(s.Queue))
	}
	if o.events != nil {
		*o.events = s.Queue.Dispatched()
	}
	return nil
}

// complete runs s to the end of the point and finishes the run.
func (o *runOpts) complete(ctx context.Context, s *soc.System, limit sim.Tick) (sim.Tick, error) {
	done, err := s.RunUntilNVDLAsDoneCtx(ctx, limit)
	if err := o.finish(s, err); err != nil {
		return 0, err
	}
	return done, nil
}

// handRun is Run's lifecycle for a system a Runner method built by hand
// rather than from a RunSpec: the runner's options (see Runner.options, plus
// extra) attach to s, drive brings the system up and runs it, and the run
// finishes whatever drive returns. Warm start does not apply: there is no
// spec to key a snapshot by.
func (r Runner) handRun(s *soc.System, drive func() error, extra ...Option) error {
	o := resolve(r.options(), extra)
	if err := o.attach(s); err != nil {
		return err
	}
	return o.finish(s, drive())
}

// runFor runs a hand-built system to limit while watching ctx (see
// sim.EventQueue.WatchContext), and returns ctx.Err() if the context ended
// the run.
func runFor(ctx context.Context, s *soc.System, limit sim.Tick) error {
	stop := s.Queue.WatchContext(ctx, 0)
	s.Queue.RunUntil(limit)
	stop()
	return ctx.Err()
}
