package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/obs"
	"gem5rtl/internal/prof"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/stats"
)

// MetricsPrefix namespaces every family the metrics endpoint exposes.
const MetricsPrefix = "gem5rtl_"

// Config tunes a sweep server. The zero value is a usable in-memory server
// with runtime.NumCPU() workers, default retries and no warm start.
type Config struct {
	// Workers is the simulation worker pool size; <= 0 means
	// runtime.NumCPU(). A running point occupies exactly one worker.
	Workers int
	// StoreDir persists results as <fingerprint>.json files; "" keeps the
	// store in memory only (it then dies with the process). Quarantined
	// poison records live in its poison/ subdirectory, corrupt files moved
	// aside by the boot scan in quarantine/.
	StoreDir string
	// Options configure every point's experiments.Run call: warm start
	// against a shared checkpoint cache (workers warm each other, and with a
	// checkpoint directory a restarted server inherits the previous one's
	// prefixes) and a liveness watchdog, so a hung simulation fails its
	// point with a diagnostic instead of stalling a worker until the
	// simulated time limit. cli.Flags.Options builds them from sweepd's
	// flags. Points run concurrently, so no per-point sink belongs here.
	Options []experiments.Option
	// Quota bounds any one client's live (queued or running) points;
	// 0 = unlimited. Joining an in-flight point or reading the store is
	// always free — the quota prices new simulation work only.
	Quota int
	// MaxQueue bounds the waiting queue (pending + retry-wait points); a
	// submission that would push past it is shed with HTTP 429. 0 = unbounded.
	MaxQueue int
	// Retry tunes the transient-failure retry loop; the zero value selects
	// the RetryPolicy defaults (3 attempts, 100ms..5s seeded backoff).
	Retry RetryPolicy
	// PointDeadline bounds one execution attempt of one point with a context
	// timeout (layered under the simulated-time watchdog, which cannot fire
	// if the host itself stalls). A blown deadline is a transient failure:
	// the point is evicted back to the retry loop. 0 = no deadline.
	PointDeadline time.Duration
	// RunPoint overrides the per-point executor; nil means experiments.Run
	// with Options. Tests use it to count executions and inject failures.
	RunPoint func(ctx context.Context, spec experiments.RunSpec) (sim.Tick, error)
	// Chaos, when non-nil, wraps the composed executor (including a custom
	// RunPoint) with seeded fault injection. Soak tests only.
	Chaos *Chaos
	// StreamPeriod is the progress stream's record period (0 = 1s). The e2e
	// tests shorten it so streams produce records quickly.
	StreamPeriod time.Duration
	// SelfProfile, when > 0, attaches the event-kernel self-profiler to
	// every simulated point (clock-read cadence in dispatches; use
	// sim.DefaultProfileEvery) and aggregates the per-component attribution
	// across points into the /v1/metrics selfprof families. Profiling is
	// observational — results and their canonical encoding are unchanged.
	// Ignored when RunPoint overrides the executor.
	SelfProfile int
}

// Server is the sweep service: an HTTP handler plus the worker pool behind
// it. Construct with New, mount Handler on any mux or httptest server, call
// Start to launch the workers, and stop with Drain (finish the queue) or
// Close (abandon it).
type Server struct {
	cfg    Config
	store  *Store
	poison *PoisonStore
	sched  *scheduler
	run    func(ctx context.Context, spec experiments.RunSpec) (sim.Tick, error)
	reg    *stats.Registry

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	live   atomic.Int64 // worker goroutines alive
	busy   atomic.Int64 // workers executing a point right now

	draining atomic.Bool // intake stopped (Drain, Close or POST /v1/drain)
	started  atomic.Bool

	// attr aggregates per-point self-profiler attribution (Config.SelfProfile)
	// across every simulated point since boot, for /v1/metrics.
	attrMu sync.Mutex
	attr   *prof.Report
}

// New builds a server: opens (and recovers) the result and poison stores and
// composes the per-point executor from the config.
func New(cfg Config) (*Server, error) {
	store, err := OpenStore(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	poisonDir := ""
	if cfg.StoreDir != "" {
		poisonDir = filepath.Join(cfg.StoreDir, PoisonDir)
	}
	poison, err := OpenPoisonStore(poisonDir)
	if err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	s := &Server{
		cfg: cfg, store: store, poison: poison,
		sched: newScheduler(poison, cfg.Retry, cfg.MaxQueue),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.run = cfg.RunPoint
	if s.run == nil {
		opts := cfg.Options
		if cfg.SelfProfile > 0 {
			// The sink merges under the server's own mutex, so one option
			// serves every concurrent point.
			opts = append(opts[:len(opts):len(opts)], experiments.WithSelfProfile(cfg.SelfProfile, s.recordAttr))
		}
		s.run = func(ctx context.Context, spec experiments.RunSpec) (sim.Tick, error) {
			return experiments.Run(ctx, spec, opts...)
		}
	}
	if cfg.Chaos != nil {
		// The chaos layer wraps the fully composed executor, so injected
		// faults exercise the same retry/quarantine path real failures take.
		s.run = cfg.Chaos.Wrap(s.run)
	}
	s.reg = stats.NewRegistry()
	obs.RegisterHostStats(s.reg)
	s.reg.Register("sweepd.points.pending", "simulation points queued", func() float64 {
		return float64(s.sched.counts().pending)
	})
	s.reg.Register("sweepd.points.running", "simulation points executing", func() float64 {
		return float64(s.sched.counts().running)
	})
	s.reg.Register("sweepd.points.retrying", "points waiting out a retry backoff", func() float64 {
		return float64(s.sched.counts().delayed)
	})
	s.reg.Register("sweepd.retries", "retry attempts scheduled since boot", func() float64 {
		return float64(s.sched.counts().retries)
	})
	s.reg.Register("sweepd.quarantined", "poison points quarantined", func() float64 {
		return float64(poison.Len())
	})
	s.reg.Register("sweepd.store.len", "results in the persistent store", func() float64 {
		return float64(store.Len())
	})
	s.reg.Register("sweepd.workers.live", "worker goroutines alive", func() float64 {
		return float64(s.live.Load())
	})
	s.reg.Register("sweepd.workers.busy", "workers executing a point right now", func() float64 {
		return float64(s.busy.Load())
	})
	s.reg.Register("sweepd.workers.utilization", "fraction of the worker pool executing a point", func() float64 {
		return float64(s.busy.Load()) / float64(s.cfg.Workers)
	})
	return s, nil
}

// recordAttr folds one point's self-profiler attribution report into the
// server-wide aggregate that /v1/metrics serves.
func (s *Server) recordAttr(rep *prof.Report) {
	if rep == nil {
		return
	}
	s.attrMu.Lock()
	if s.attr == nil {
		s.attr = &prof.Report{}
	}
	s.attr.Merge(rep)
	s.attrMu.Unlock()
}

// Attr returns a snapshot of the aggregated self-profiler attribution, or nil
// when profiling is off or no point has completed yet.
func (s *Server) Attr() *prof.Report {
	s.attrMu.Lock()
	defer s.attrMu.Unlock()
	return s.attr.Clone()
}

// corruptFiles counts the files the boot scans of the result and poison
// stores moved to their quarantine/ subdirectories.
func (s *Server) corruptFiles() int { return s.store.Quarantined() + s.poison.Quarantined() }

// Start launches the worker pool. Idempotent.
func (s *Server) Start() {
	if s.started.Swap(true) {
		return
	}
	for w := 0; w < s.cfg.Workers; w++ {
		s.wg.Add(1)
		s.live.Add(1)
		go s.worker()
	}
}

// worker pulls points off the scheduler until it closes with an empty queue.
// Each attempt runs under the per-point deadline (if configured); the outcome
// settles through the retry/quarantine state machine.
func (s *Server) worker() {
	defer s.wg.Done()
	defer s.live.Add(-1)
	for {
		p := s.sched.next()
		if p == nil {
			return
		}
		s.busy.Add(1)
		ctx, cancel := s.ctx, context.CancelFunc(func() {})
		if s.cfg.PointDeadline > 0 {
			ctx, cancel = context.WithTimeout(s.ctx, s.cfg.PointDeadline)
		}
		// A diverging simulation (or a chaos-injected panic) fails its
		// attempt as a transient error: the worker survives and the point
		// goes back to the retry loop.
		var ticks sim.Tick
		err := experiments.Recover(p.spec, func() (err error) {
			ticks, err = s.run(ctx, p.spec)
			return err
		})
		cancel()
		s.busy.Add(-1)
		s.sched.settle(s.store, p, ticks, err)
	}
}

// Store exposes the result store (the e2e tests assert on its length).
func (s *Server) Store() *Store { return s.store }

// Poison exposes the quarantine (poison) store.
func (s *Server) Poison() *PoisonStore { return s.poison }

// Drain stops accepting jobs, lets the workers finish every queued point
// (retry-waiting points skip their backoff and settle immediately), and
// returns when the pool has exited or ctx ends (in which case the remaining
// work is abandoned as in Close).
func (s *Server) Drain(ctx context.Context) error {
	s.stopIntake()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		return ctx.Err()
	}
}

// stopIntake stops accepting jobs and closes the scheduler, and reports
// whether the intake was already stopped.
func (s *Server) stopIntake() (already bool) {
	already = s.draining.Swap(true)
	s.sched.close()
	return already
}

// Close abandons the queue: in-flight points are cancelled through their
// context (failing without retry or quarantine — a resubmission after
// restart simulates them fresh) and the worker pool is awaited.
func (s *Server) Close() {
	s.stopIntake()
	s.cancel()
	s.wg.Wait()
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/status", s.handleServerStatus)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/quarantine", s.handleQuarantineList)
	mux.HandleFunc("DELETE /v1/quarantine/{fp}", s.handleUnquarantine)
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	return mux
}

// writeJSON writes one JSON value with a status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Retry-After hints, in seconds: load shedding clears as soon as points
// settle, so retry quickly; a draining server is going away, so back off.
const (
	retryAfterShed  = "1"
	retryAfterDrain = "5"
)

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfterDrain)
		writeJSON(w, http.StatusServiceUnavailable, errorf("%v", ErrDraining))
		return
	}
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorf("decoding submit request: %v", err))
		return
	}
	if len(req.Specs) == 0 {
		writeJSON(w, http.StatusBadRequest, errorf("empty batch: submit at least one spec"))
		return
	}
	for i, spec := range req.Specs {
		if err := spec.Validate(); err != nil {
			writeJSON(w, http.StatusBadRequest, errorf("spec[%d]: %v", i, err))
			return
		}
	}
	j, err := s.sched.submit(s.store, req, s.cfg.Quota)
	if err != nil {
		var quotaErr *QuotaError
		var fullErr *QueueFullError
		switch {
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", retryAfterDrain)
			writeJSON(w, http.StatusServiceUnavailable, errorf("%v", err))
		case errors.As(err, &quotaErr), errors.As(err, &fullErr):
			w.Header().Set("Retry-After", retryAfterShed)
			writeJSON(w, http.StatusTooManyRequests, errorf("%v", err))
		default:
			writeJSON(w, http.StatusInternalServerError, errorf("%v", err))
		}
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: j.id, Points: len(j.points), Cached: j.cached})
}

// job looks up the job the request's {id} names, answering 404 if there is
// none.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*job, bool) {
	j, ok := s.sched.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorf("no such job %q", r.PathValue("id")))
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.sched.status(j))
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	results, done := s.sched.results(j)
	if !done {
		writeJSON(w, http.StatusConflict, errorf("job %s is still running; poll status or stream", j.id))
		return
	}
	// Canonical encoding: compact records, one array, trailing newline —
	// byte-identical to sweepctl's local mode over the same batch.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(EncodeResults(results))
}

// EncodeResults renders the canonical results document. Both the results
// endpoint and sweepctl's local mode use it, so the two paths can be diffed
// byte for byte.
func EncodeResults(results []PointResult) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		// A struct of strings, integers and floats cannot fail to encode.
		panic("sweepd: encoding results: " + err.Error())
	}
	return buf.Bytes()
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	// Stream interval records until the job finishes or the client leaves;
	// the streamer emits one final record on cancellation so even an
	// already-done job yields a complete snapshot.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-j.done:
		case <-ctx.Done():
		}
		cancel()
	}()
	streamer := &obs.HostIntervalStreamer{
		Reg:    s.reg,
		W:      w,
		Period: s.cfg.StreamPeriod,
		Annotate: func(rec *obs.IntervalRecord) {
			rec.Extra = s.sched.status(j)
		},
	}
	_ = streamer.Run(ctx)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.cancel(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorf("no such job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.sched.status(j))
}

func (s *Server) handleServerStatus(w http.ResponseWriter, r *http.Request) {
	c := s.sched.counts()
	hits, misses, stale, corrupt := obs.CkptCacheCounts()
	writeJSON(w, http.StatusOK, ServerStatus{
		Jobs: c.jobs, ActiveJobs: c.active,
		PointsPending: c.pending, PointsRunning: c.running,
		PointsRetrying: c.delayed, Retries: c.retries,
		StoreLen:    s.store.Len(),
		Quarantined: s.poison.Len(), StoreQuarantined: s.corruptFiles(),
		Draining: s.draining.Load(), Workers: s.cfg.Workers,
		CkptCache: CkptCacheCounts{Hits: hits, Misses: misses, Stale: stale, Corrupt: corrupt},
	})
}

// handleMetrics serves the fleet metrics plane in the Prometheus text
// exposition format: every registry statistic (queue depths, retry and
// quarantine counters, checkpoint-cache effectiveness, worker utilization)
// as a gauge family, plus — when Config.SelfProfile is on — the aggregated
// per-component attribution counter families. The body is rendered to a
// buffer first so a slow client can never block the stats registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	_ = prof.WritePromRegistry(&buf, MetricsPrefix, s.reg)
	if rep := s.Attr(); rep != nil {
		_ = rep.WriteProm(&buf, MetricsPrefix)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c := s.sched.counts()
	draining := s.draining.Load()
	live := int(s.live.Load())
	h := HealthStatus{
		Draining:    draining,
		WorkersLive: live, WorkersBusy: int(s.busy.Load()),
		QueueDepth: c.pending + c.delayed, Retrying: c.delayed,
		Quarantined: s.poison.Len(), StoreQuarantined: s.corruptFiles(),
	}
	h.OK = !draining && s.started.Load() && live == s.cfg.Workers
	code := http.StatusOK
	if !h.OK {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (s *Server) handleQuarantineList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, QuarantineList{
		Points:     s.poison.List(),
		StoreFiles: s.corruptFiles(),
	})
}

func (s *Server) handleUnquarantine(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	if !s.poison.Remove(fp) {
		writeJSON(w, http.StatusNotFound, errorf("fingerprint %q is not quarantined", fp))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": fp})
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	already := s.stopIntake()
	c := s.sched.counts()
	writeJSON(w, http.StatusOK, map[string]any{
		"draining":       true,
		"already":        already,
		"points_pending": c.pending,
		"points_running": c.running,
	})
}
