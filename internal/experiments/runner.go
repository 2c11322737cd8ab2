package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"gem5rtl/internal/obs"
	"gem5rtl/internal/prof"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
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
	// Options configure every run the runner makes (warm-start, watchdog,
	// tracing — see the Option constructors); warm start applies to Sweep
	// points only. Points execute concurrently, so per-point sinks like
	// WithStateHash must not be used here; compose them on direct Run calls
	// instead. Ignored by Sweep when Run is set.
	Options []Option
	// Monitor, when non-nil, samples host runtime metrics (wall time,
	// goroutines, heap, aggregate simulated events/sec) for the duration of
	// each Sweep or ForEach. The caller owns the monitor's output writer.
	Monitor *obs.HostMonitor
	// SelfProfile, when > 0, attaches the event-kernel self-profiler to
	// every non-ideal Sweep point (clock-read cadence in dispatches; use
	// sim.DefaultProfileEvery) and stores each point's attribution report
	// in Result.Attr. Ideal-memory baseline runs are shared across points
	// and are never profiled. Ignored when Run is set. The other methods —
	// Figure5, Table2 and the fault campaigns — profile every run they make
	// when AttrSink is set and hand the reports to it only. Profiling is
	// observational: no table changes but the host-time columns.
	SelfProfile int
	// AttrSink, when non-nil, additionally receives every profiled point's
	// attribution report as it completes — the aggregation hook for CLIs
	// whose table helpers discard the raw Results. It is called from worker
	// goroutines and must be safe for concurrent use.
	AttrSink func(*prof.Report)

	// oracles builds the systems the methods build by hand on test oracles;
	// only this package's tests set it.
	oracles soc.Oracles
}

// options is the option list of a run a Runner method builds by hand: the
// runner's Options, then the self-profiler feeding AttrSink when SelfProfile
// is on. Sweep points compose their own profiler sink (see runOne), and the
// shared ideal baselines are never profiled.
func (r Runner) options() []Option {
	if r.SelfProfile <= 0 || r.AttrSink == nil {
		return r.Options
	}
	return append(r.Options[:len(r.Options):len(r.Options)], WithSelfProfile(r.SelfProfile, r.AttrSink))
}

// exec runs one point: the Run override when it is set, which takes no
// options, else Run with the runner's options and extra.
func (r Runner) exec(ctx context.Context, spec RunSpec, extra ...Option) (sim.Tick, error) {
	if r.Run != nil {
		return r.Run(ctx, spec)
	}
	return Run(ctx, spec, append(r.Options[:len(r.Options):len(r.Options)], extra...)...)
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
	results := make([]Result, len(specs))
	cache := &baselineCache{r: r, entries: map[RunSpec]*baselineEntry{}}
	// An item never fails — runOne records each point's error in its Result
	// — so the pool's error is the context's, handled below.
	_ = r.ForEach(ctx, len(specs), func(ctx context.Context, i int) error {
		results[i] = r.runOne(ctx, specs[i], cache)
		return nil
	})
	if err := ctx.Err(); err != nil {
		for i := range results {
			if results[i] == (Result{}) {
				// Never started: the pool stopped feeding at cancellation.
				results[i] = Result{Spec: specs[i], Err: err}
			}
		}
		return results, err
	}
	return results, nil
}

// runOne executes a single point with panic recovery and normalisation.
func (r Runner) runOne(ctx context.Context, spec RunSpec, cache *baselineCache) Result {
	res := Result{Spec: spec}
	if err := Recover(spec, func() error { return r.point(ctx, cache, &res) }); err != nil {
		res.Ticks, res.Perf, res.Err = 0, 0, err
	}
	r.say(&res)
	return res
}

// point simulates res.Spec, or reads it from the baseline cache when it is
// an ideal point, and normalises it against its ideal baseline.
func (r Runner) point(ctx context.Context, cache *baselineCache, res *Result) error {
	spec := res.Spec
	if spec.IsIdeal() {
		e := cache.get(ctx, spec.Baseline())
		res.HostTime, res.Events = e.hostTime, e.events
		if e.err != nil {
			return e.err
		}
		res.Ticks, res.Perf = e.ticks, 1
		return nil
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
	t, err := r.exec(ctx, spec, extra...)
	res.HostTime = time.Since(start)
	if err != nil {
		return err
	}
	ideal := cache.get(ctx, spec.Baseline())
	if ideal.err != nil {
		return fmt.Errorf("ideal baseline for %v: %w", spec, ideal.err)
	}
	res.Ticks, res.Perf = t, float64(ideal.ticks)/float64(t)
	return nil
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

// item names a ForEach work item in a recovered panic.
type item int

func (i item) String() string { return fmt.Sprintf("item %d", int(i)) }

// ForEach runs fn(ctx, i) for every i in [0, n) on the runner's worker pool,
// each item under Recover. It is the runner's one pool: Sweep, Table 2 and
// the fault campaigns all run on it. It returns the first error in index
// order (including ctx.Err() for items skipped after cancellation); fn
// stores its own results by index.
func (r Runner) ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if r.Monitor != nil {
		r.Monitor.Start()
		defer r.Monitor.Stop()
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = Recover(item(i), func() error { return fn(ctx, i) })
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
	r       Runner
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
		start := time.Now()
		e.err = Recover(spec, func() (err error) {
			e.ticks, err = c.r.exec(ctx, spec, withEvents(&e.events))
			return err
		})
		e.hostTime = time.Since(start)
	})
	return e
}
