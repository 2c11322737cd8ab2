package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"gem5rtl/internal/obs"
	"gem5rtl/internal/prof"
	"gem5rtl/internal/sim"
)

// Result is the outcome of one RunSpec.
type Result struct {
	Spec RunSpec
	// Ticks is the completion time of the slowest accelerator.
	Ticks sim.Tick
	// Perf is Ticks(ideal baseline) / Ticks — the figures' "performance
	// normalised to ideal memory". 1 for ideal points, 0 when Err is set.
	Perf float64
	// HostTime is the wall-clock cost of this point's own simulation
	// (baseline lookups for normalisation are excluded).
	HostTime time.Duration
	// Events is how many events the point's queue dispatched: its cost in
	// units that, unlike HostTime, do not depend on the host. 0 when the
	// Runner's Run override executed the point.
	Events uint64
	// Err records a per-point failure: a build/trace error, ctx.Err() on
	// cancellation, or a recovered panic from a diverging simulation. The
	// rest of the sweep is unaffected.
	Err error
	// Attr is the point's self-profiler attribution report (nil unless the
	// Runner's SelfProfile is on). Its event counts are exact and
	// deterministic; its host-time shares are sampled wall time and, like
	// HostTime, machine-dependent.
	Attr *prof.Report `json:"attr,omitempty"`
}

// Runner executes sweeps of independent simulation points on a worker pool.
// The zero value is a valid sequential runner (Workers <= 0 selects
// runtime.NumCPU(); set Workers to 1 for strictly sequential execution and
// faithful per-point host times).
type Runner struct {
	// Workers is the pool size; <= 0 means runtime.NumCPU().
	Workers int
	// Report receives per-point progress lines (may be nil). It is called
	// from worker goroutines and must be safe for concurrent use.
	Report func(string)
	// Run overrides the per-point executor; nil means Run with Options.
	// Tests use this to inject failures and count baseline executions.
	Run func(ctx context.Context, spec RunSpec) (sim.Tick, error)
	// Options configure every point's Run call (warm-start, watchdog,
	// tracing — see the Option constructors). Points execute concurrently,
	// so per-point sinks like WithStateHash must not be used here; compose
	// them on direct Run calls instead. Ignored when Run is set.
	Options []Option
	// Monitor, when non-nil, samples host runtime metrics (wall time,
	// goroutines, heap, aggregate simulated events/sec) for the duration of
	// each Sweep or ForEach. The caller owns the monitor's output writer.
	Monitor *obs.HostMonitor
	// SelfProfile, when > 0, attaches the event-kernel self-profiler to
	// every non-ideal point (clock-read cadence in dispatches; use
	// sim.DefaultProfileEvery) and stores each point's attribution report
	// in Result.Attr. Ideal-memory baseline runs are shared across points
	// and are never profiled. Ignored when Run is set.
	SelfProfile int
	// AttrSink, when non-nil, additionally receives every profiled point's
	// attribution report as it completes — the aggregation hook for CLIs
	// whose table helpers discard the raw Results. It is called from worker
	// goroutines and must be safe for concurrent use.
	AttrSink func(*prof.Report)
}

// pointRun executes one point with extra per-point options.
type pointRun func(ctx context.Context, spec RunSpec, extra ...Option) (sim.Tick, error)

// executor resolves the per-point run function: an explicit override, which
// takes no options, or the unified Run entry point with the runner's options.
func (r Runner) executor() pointRun {
	if r.Run != nil {
		return func(ctx context.Context, spec RunSpec, _ ...Option) (sim.Tick, error) {
			return r.Run(ctx, spec)
		}
	}
	opts := r.Options
	return func(ctx context.Context, spec RunSpec, extra ...Option) (sim.Tick, error) {
		return Run(ctx, spec, append(opts[:len(opts):len(opts)], extra...)...)
	}
}

// panicError wraps a recovered panic with the failing work item and the
// goroutine stack at the recovery point, so a diverging simulation deep in a
// sweep is diagnosable from Result.Err alone.
func panicError(what string, p any) error {
	return fmt.Errorf("experiments: %s panicked: %v\n%s", what, p, debug.Stack())
}

// poolSize resolves the effective worker count for n queued items.
func (r Runner) poolSize(n int) int {
	w := r.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Sweep runs every spec and returns one Result per spec, in input order
// regardless of completion order. Individual failures (including recovered
// panics from diverging simulations) are reported in Result.Err without
// aborting the sweep; the returned error is non-nil only when ctx ends
// before the sweep completes, in which case it is ctx.Err() and unstarted
// points carry it in their Result.Err.
//
// Ideal-memory baselines are deduplicated through a keyed cache: each
// distinct (workload, count, inflight, scale, limit) ideal run is simulated
// once per Sweep and shared by the ideal point itself and every technology
// point normalised against it.
func (r Runner) Sweep(ctx context.Context, specs []RunSpec) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	run := r.executor()
	if r.Monitor != nil {
		r.Monitor.Start()
		defer r.Monitor.Stop()
	}
	results := make([]Result, len(specs))
	cache := &baselineCache{run: run, entries: map[RunSpec]*baselineEntry{}}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < r.poolSize(len(specs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = r.runOne(ctx, specs[i], cache)
			}
		}()
	}
	var unfed []int
	for i := range specs {
		select {
		case idx <- i:
		case <-ctx.Done():
			unfed = append(unfed, i)
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		for _, i := range unfed {
			results[i] = Result{Spec: specs[i], Err: err}
		}
		return results, err
	}
	return results, nil
}

// runOne executes a single point with panic recovery and normalisation.
func (r Runner) runOne(ctx context.Context, spec RunSpec, cache *baselineCache) (res Result) {
	res.Spec = spec
	defer func() {
		if p := recover(); p != nil {
			res.Ticks, res.Perf = 0, 0
			res.Err = panicError(spec.String(), p)
		}
		r.say(&res)
	}()
	if spec.isIdeal() {
		e := cache.get(ctx, spec.baseline())
		res.Ticks, res.HostTime, res.Events, res.Err = e.ticks, e.hostTime, e.events, e.err
		if res.Err == nil {
			res.Perf = 1
		}
		return res
	}
	// Per-point sinks are composed here, so the shared r.Options slice stays
	// free of them.
	extra := []Option{withEvents(&res.Events)}
	if r.SelfProfile > 0 {
		extra = append(extra, WithSelfProfile(r.SelfProfile, func(rep *prof.Report) {
			res.Attr = rep
			if r.AttrSink != nil {
				r.AttrSink(rep)
			}
		}))
	}
	start := time.Now()
	t, err := cache.run(ctx, spec, extra...)
	res.HostTime = time.Since(start)
	if err != nil {
		res.Err = err
		return res
	}
	res.Ticks = t
	ideal := cache.get(ctx, spec.baseline())
	if ideal.err != nil {
		res.Err = fmt.Errorf("ideal baseline for %v: %w", spec, ideal.err)
		return res
	}
	res.Perf = float64(ideal.ticks) / float64(t)
	return res
}

// say emits one progress line for a finished point.
func (r Runner) say(res *Result) {
	if r.Report == nil {
		return
	}
	if res.Err != nil {
		r.Report(fmt.Sprintf("%s n=%d inflight=%3d %-9s ERROR: %v",
			res.Spec.Workload, res.Spec.NVDLAs, res.Spec.Inflight, res.Spec.Memory, res.Err))
		return
	}
	r.Report(fmt.Sprintf("%s n=%d inflight=%3d %-9s perf=%.3f (%s host)",
		res.Spec.Workload, res.Spec.NVDLAs, res.Spec.Inflight, res.Spec.Memory,
		res.Perf, res.HostTime.Round(time.Millisecond)))
}

// ForEach runs fn(ctx, i) for every i in [0, n) on the worker pool, with
// the same per-item panic recovery as Sweep. It is the generic counterpart
// to Sweep for experiment loops whose points are not RunSpec simulations
// (e.g. the PMU sort-benchmark overhead matrix). It returns the first error
// in index order (including ctx.Err() for items skipped after
// cancellation); fn stores its own results by index.
func (r Runner) ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if r.Monitor != nil {
		r.Monitor.Start()
		defer r.Monitor.Stop()
	}
	errs := make([]error, n)
	runItem := func(i int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = panicError(fmt.Sprintf("item %d", i), p)
			}
		}()
		return fn(ctx, i)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < r.poolSize(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = runItem(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			errs[i] = ctx.Err()
		}
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// baselineCache deduplicates ideal-memory baseline runs within one sweep:
// the first getter of a key simulates it (with panic recovery, so a
// diverging baseline surfaces as an error on every dependent point rather
// than a crash); concurrent getters block until the result is ready.
type baselineCache struct {
	run     pointRun
	mu      sync.Mutex
	entries map[RunSpec]*baselineEntry
}

type baselineEntry struct {
	once     sync.Once
	ticks    sim.Tick
	hostTime time.Duration
	events   uint64
	err      error
}

func (c *baselineCache) get(ctx context.Context, spec RunSpec) *baselineEntry {
	c.mu.Lock()
	e := c.entries[spec]
	if e == nil {
		e = &baselineEntry{}
		c.entries[spec] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		defer func() {
			if p := recover(); p != nil {
				e.err = panicError(spec.String(), p)
			}
		}()
		start := time.Now()
		e.ticks, e.err = c.run(ctx, spec, withEvents(&e.events))
		e.hostTime = time.Since(start)
	})
	return e
}
