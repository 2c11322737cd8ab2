package sweepd

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/sim"
)

// pointState is the lifecycle of one deduplicated simulation point:
//
//	pending ──next──▶ running ──settle──▶ done        (success, persisted)
//	   ▲                  │
//	   │                  ├─────────────▶ failed      (cancelled at shutdown)
//	   │                  │
//	   │                  ├─────────────▶ quarantined (permanent failure, or
//	   │                  │                            retry budget exhausted)
//	retry-wait ◀──────────┘               (transient failure, attempts left)
//
//	pending / retry-wait ───cancel──────▶ skipped     (no job wants it)
//
// Every submitted point reaches exactly one terminal state (done, failed,
// skipped or quarantined); the chaos soak test asserts this invariant under
// injected panics, hangs and faults.
type pointState int

const (
	pointPending pointState = iota
	pointRetryWait
	pointRunning
	// Terminal states follow; terminal() relies on the order.
	pointDone
	pointFailed
	pointSkipped // every interested job cancelled before it ran
	pointQuarantined
)

// terminal reports whether the point has reached a final state.
func (s pointState) terminal() bool { return s >= pointDone }

// point is one deduplicated unit of simulation work. Jobs that need the same
// fingerprint — within a batch, across batches, across clients — share the
// point: it simulates once and everyone reads the result.
//
// attempts and errs are owner-only fields: between next() claiming the point
// and settle() publishing it, only the claiming worker touches them, so the
// settling worker may read them without the scheduler lock (it needs them
// outside the lock to write the poison record before publishing).
type point struct {
	spec     experiments.RunSpec
	fp       string
	priority int    // max over interested jobs
	seq      uint64 // submission order, the tie-breaker
	index    int    // heap position, -1 when not queued
	state    pointState
	attempts int      // executions started (next() increments)
	errs     []string // every failed attempt's error, in order
	ticks    sim.Tick
	err      error
	jobs     map[*job]struct{} // jobs still interested in the result
}

// job is one submitted batch plus the hidden ideal baselines its Perf
// normalisation needs.
type job struct {
	id        string
	client    string
	priority  int
	specs     []experiments.RunSpec // client-visible, submit order
	points    map[string]*point     // every needed point, keyed by fingerprint
	cached    int                   // points served from the store at submit
	cancelled bool
	done      chan struct{} // closed when the job reaches a terminal state
	finished  bool
}

// pointHeap orders pending points by (priority desc, seq asc): higher
// priority first, submission order within a priority band.
type pointHeap []*point

func (h pointHeap) Len() int { return len(h) }
func (h pointHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h pointHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *pointHeap) Push(x any) {
	p := x.(*point)
	p.index = len(*h)
	*h = append(*h, p)
}
func (h *pointHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	p.index = -1
	*h = old[:n-1]
	return p
}

// ErrDraining rejects submissions to a server that has stopped intake.
var ErrDraining = errors.New("sweepd: server is draining")

// QuotaError rejects a submission that would push a client past its live-point
// quota. It maps to HTTP 429.
type QuotaError struct {
	Client string
	// Live is the client's current queued-or-running point count, Fresh the
	// new simulation work the rejected batch would add, Quota the limit.
	Live, Fresh, Quota int
}

// Error implements error.
func (e *QuotaError) Error() string {
	return fmt.Sprintf("sweepd: client %q quota exceeded: %d live + %d new points > %d",
		e.Client, e.Live, e.Fresh, e.Quota)
}

// QueueFullError sheds load when a submission would push the queue past its
// configured depth bound. It maps to HTTP 429.
type QueueFullError struct {
	// Queued counts points waiting (pending + retry-wait), Fresh the new
	// points the rejected batch would add, Max the bound.
	Queued, Fresh, Max int
}

// Error implements error.
func (e *QueueFullError) Error() string {
	return fmt.Sprintf("sweepd: queue full: %d queued + %d new points > %d",
		e.Queued, e.Fresh, e.Max)
}

// scheduler owns the job table, the deduplicated point set and the pending
// heap under one mutex. Workers block on cond until a point is available or
// the scheduler closes. It also owns the fault-tolerance policy: the retry
// schedule, the retry-wait timers, the queue depth bound, and the poison
// store of quarantined points.
type scheduler struct {
	retry    RetryPolicy
	poison   *PoisonStore
	maxQueue int

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*job
	jobSeq  int
	points  map[string]*point // live (non-terminal) points by fingerprint
	pending pointHeap
	timers  map[*point]*time.Timer // retry-wait timers, by point
	seq     uint64
	running int
	delayed int    // points in retry-wait
	retries uint64 // total retries scheduled since boot
	closed  bool
}

func newScheduler(poison *PoisonStore, retry RetryPolicy, maxQueue int) *scheduler {
	s := &scheduler{
		retry: retry.withDefaults(), poison: poison, maxQueue: maxQueue,
		jobs: map[string]*job{}, points: map[string]*point{},
		timers: map[*point]*time.Timer{},
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// submit registers a job for specs. For every spec (and the ideal baseline of
// every technology spec) it either reads the store, serves a quarantine
// record as an error, joins an in-flight point, or queues a new one. quota
// bounds the client's live points; 0 means unlimited. The store lookup
// happens here, under the scheduler lock, so a concurrent worker cannot
// complete a point between the check and the enqueue.
func (s *scheduler) submit(st *Store, req SubmitRequest, quota int) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrDraining
	}

	// The job needs each submitted spec plus the baseline it normalises
	// against, deduplicated by fingerprint.
	need := make([]experiments.RunSpec, 0, 2*len(req.Specs))
	seen := map[string]bool{}
	for _, spec := range req.Specs {
		for _, sp := range []experiments.RunSpec{spec, spec.Baseline()} {
			if fp := sp.Fingerprint(); !seen[fp] {
				seen[fp] = true
				need = append(need, sp)
			}
		}
	}

	// fresh counts the genuinely new simulation work: not stored, not
	// quarantined, not already owned by a live point. Both admission checks
	// (per-client quota, global queue depth) price fresh points only —
	// reading a cached result or joining an in-flight point is free.
	fresh := 0
	for _, sp := range need {
		fp := sp.Fingerprint()
		if _, ok := st.Get(fp); ok {
			continue
		}
		if _, ok := s.poison.Get(fp); ok {
			continue
		}
		if _, ok := s.points[fp]; ok {
			continue
		}
		fresh++
	}
	if quota > 0 {
		if live := s.clientLivePointsLocked(req.Client); live+fresh > quota {
			return nil, &QuotaError{Client: req.Client, Live: live, Fresh: fresh, Quota: quota}
		}
	}
	if queued := s.pending.Len() + s.delayed; s.maxQueue > 0 && queued+fresh > s.maxQueue {
		return nil, &QueueFullError{Queued: queued, Fresh: fresh, Max: s.maxQueue}
	}

	s.jobSeq++
	j := &job{
		id:       fmt.Sprintf("job-%06d", s.jobSeq),
		client:   req.Client,
		priority: req.Priority,
		specs:    req.Specs,
		points:   map[string]*point{},
		done:     make(chan struct{}),
	}
	for _, sp := range need {
		fp := sp.Fingerprint()
		if ent, ok := st.Get(fp); ok {
			// Served from the persistent store: a terminal point private to
			// this job, never queued.
			j.points[fp] = &point{spec: sp, fp: fp, state: pointDone, ticks: ent.Ticks, index: -1}
			j.cached++
			continue
		}
		if rec, ok := s.poison.Get(fp); ok {
			// Quarantined poison: served as a terminal error instead of
			// burning workers on a point that has already exhausted its
			// budget. DELETE /v1/quarantine/{fp} clears the record.
			j.points[fp] = &point{spec: sp, fp: fp, state: pointQuarantined, err: rec.Err(), index: -1}
			continue
		}
		if p, ok := s.points[fp]; ok {
			// In flight or queued: join it, and let a high-priority job pull
			// a shared pending point up the queue.
			p.jobs[j] = struct{}{}
			if req.Priority > p.priority && p.index >= 0 {
				p.priority = req.Priority
				heap.Fix(&s.pending, p.index)
			}
			j.points[fp] = p
			continue
		}
		s.seq++
		p := &point{
			spec: sp, fp: fp, priority: req.Priority, seq: s.seq,
			index: -1, jobs: map[*job]struct{}{j: {}},
		}
		s.points[fp] = p
		heap.Push(&s.pending, p)
		j.points[fp] = p
	}
	s.jobs[j.id] = j
	s.refreshJobLocked(j)
	s.cond.Broadcast()
	return j, nil
}

// clientLivePointsLocked counts the non-terminal points a client is
// (co-)responsible for.
func (s *scheduler) clientLivePointsLocked(client string) int {
	n := 0
	for _, p := range s.points {
		if p.state.terminal() {
			continue
		}
		for j := range p.jobs {
			if j.client == client {
				n++
				break
			}
		}
	}
	return n
}

// next blocks until a pending point is available and claims it, or returns
// nil when the scheduler closes with an empty queue. Claiming charges one
// execution attempt.
func (s *scheduler) next() *point {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.pending.Len() > 0 {
			p := heap.Pop(&s.pending).(*point)
			p.state = pointRunning
			p.attempts++
			s.running++
			return p
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// settle resolves one execution attempt of a claimed point. Success persists
// to the result store and publishes done. A failure routes through the
// taxonomy (see classify): cancellation publishes a plain failure so a
// post-restart resubmission simulates fresh; a permanent error quarantines
// immediately; a transient error either re-queues the point after its seeded
// backoff or — once the attempt budget is spent — quarantines it as poison.
func (s *scheduler) settle(st *Store, p *point, ticks sim.Tick, err error) {
	if err == nil {
		// Persist before publishing: a job observed as done must survive a
		// restart. A store write failure degrades to memory-only (the run
		// itself succeeded).
		_ = st.Put(p.spec, ticks)
		s.publish(p, pointDone, ticks, nil)
		return
	}
	p.errs = append(p.errs, err.Error()) // owner-only until published
	switch classify(err) {
	case classCancelled:
		s.publish(p, pointFailed, 0, err)
	case classPermanent:
		s.quarantinePoint(p, "permanent", err)
	default: // classTransient
		if p.attempts >= s.retry.MaxAttempts {
			s.quarantinePoint(p, "retries-exhausted", err)
			return
		}
		s.requeue(p, err)
	}
}

// publish moves a claimed point to a terminal state and settles every job
// that was waiting on it.
func (s *scheduler) publish(p *point, state pointState, ticks sim.Tick, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	p.ticks = ticks
	p.err = err
	p.state = state
	delete(s.points, p.fp)
	for j := range p.jobs {
		s.refreshJobLocked(j)
	}
	s.cond.Broadcast()
}

// quarantinePoint persists the poison record — before publishing, mirroring
// the persist-before-publish ordering of successful results — and publishes
// the point as quarantined.
func (s *scheduler) quarantinePoint(p *point, class string, err error) {
	_ = s.poison.Put(p.fp, PoisonRecord{
		Fingerprint: p.fp, Spec: p.spec, Attempts: p.attempts,
		Class: class, Errors: p.errs,
	})
	s.publish(p, pointQuarantined, 0, err)
}

// requeue schedules the retry of a transiently failed point after its seeded
// backoff. On a closed (draining) scheduler the point skips the wait and goes
// straight back on the heap so the drain settles now — the attempt budget
// still bounds total work. A point every job has abandoned is skipped
// instead of retried.
func (s *scheduler) requeue(p *point, err error) {
	delay := s.retry.Delay(p.fp, p.attempts)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	s.retries++
	p.err = err
	if len(p.jobs) == 0 {
		p.state = pointSkipped
		p.err = fmt.Errorf("sweepd: cancelled before running")
		delete(s.points, p.fp)
		s.cond.Broadcast()
		return
	}
	if s.closed {
		p.state = pointPending
		heap.Push(&s.pending, p)
		s.cond.Broadcast()
		return
	}
	p.state = pointRetryWait
	s.delayed++
	s.timers[p] = time.AfterFunc(delay, func() { s.releaseRetry(p) })
}

// releaseRetry moves a retry-wait point back onto the pending heap when its
// backoff expires. A point that left retry-wait some other way (cancelled,
// flushed by close) is left alone.
func (s *scheduler) releaseRetry(p *point) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.state != pointRetryWait {
		return
	}
	delete(s.timers, p)
	s.delayed--
	p.state = pointPending
	heap.Push(&s.pending, p)
	s.cond.Broadcast()
}

// cancel marks a job cancelled and withdraws its interest from every queued
// or retry-waiting point; points no other job wants are skipped without
// simulating. Running points complete normally — their results are still
// worth storing.
func (s *scheduler) cancel(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	if j.cancelled || j.finished {
		return j, true
	}
	j.cancelled = true
	for _, p := range j.points {
		if p.jobs == nil {
			continue
		}
		delete(p.jobs, j)
		if len(p.jobs) > 0 {
			continue
		}
		switch p.state {
		case pointPending:
			heap.Remove(&s.pending, p.index)
		case pointRetryWait:
			if t := s.timers[p]; t != nil {
				t.Stop()
				delete(s.timers, p)
			}
			s.delayed--
		default:
			continue
		}
		p.state = pointSkipped
		p.err = fmt.Errorf("sweepd: cancelled before running")
		delete(s.points, p.fp)
	}
	s.finishJobLocked(j)
	s.cond.Broadcast()
	return j, true
}

// refreshJobLocked closes the job's done channel once every point it needs
// is terminal.
func (s *scheduler) refreshJobLocked(j *job) {
	if j.finished || j.cancelled {
		return
	}
	for _, p := range j.points {
		if !p.state.terminal() {
			return
		}
	}
	s.finishJobLocked(j)
}

func (s *scheduler) finishJobLocked(j *job) {
	if !j.finished {
		j.finished = true
		close(j.done)
	}
}

// get looks a job up by ID.
func (s *scheduler) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// status snapshots one job. Retry-waiting points count as pending: from the
// client's point of view they are queued work.
func (s *scheduler) status(j *job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := JobStatus{
		ID: j.id, Client: j.client, Priority: j.priority,
		Total: len(j.points), CachedAtSubmit: j.cached, State: JobRunning,
	}
	for _, p := range j.points {
		switch p.state {
		case pointDone:
			st.Done++
		case pointFailed, pointSkipped, pointQuarantined:
			st.Failed++
		case pointRunning:
			st.Running++
		default:
			st.Pending++
		}
	}
	if j.cancelled {
		st.State = JobCancelled
	} else if j.finished {
		st.State = JobDone
	}
	return st
}

// results assembles the canonical per-point records in submit order. The
// Perf of a technology point divides its baseline's ticks by its own, the
// exact computation of experiments.Runner.Sweep.
func (s *scheduler) results(j *job) ([]PointResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !j.finished {
		return nil, false
	}
	out := make([]PointResult, len(j.specs))
	for i, spec := range j.specs {
		p := j.points[spec.Fingerprint()]
		res := PointResult{Spec: spec}
		switch {
		case p.state != pointDone:
			res.Err = pointErrString(p)
		case spec.IsIdeal():
			res.Ticks, res.Perf = p.ticks, 1
		default:
			res.Ticks = p.ticks
			base := j.points[spec.Baseline().Fingerprint()]
			if base.state != pointDone {
				res.Ticks = 0
				res.Err = fmt.Sprintf("ideal baseline for %v: %s", spec, pointErrString(base))
			} else {
				res.Perf = float64(base.ticks) / float64(p.ticks)
			}
		}
		out[i] = res
	}
	return out, true
}

func pointErrString(p *point) string {
	if p.err != nil {
		return p.err.Error()
	}
	return "sweepd: point not run"
}

// schedCounts snapshots the queue-level numbers for the status and health
// endpoints.
type schedCounts struct {
	jobs, active              int
	pending, running, delayed int
	retries                   uint64
}

func (s *scheduler) counts() schedCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := schedCounts{
		jobs: len(s.jobs), pending: s.pending.Len(),
		running: s.running, delayed: s.delayed, retries: s.retries,
	}
	for _, j := range s.jobs {
		if !j.finished {
			c.active++
		}
	}
	return c
}

// close stops the intake (submit returns ErrDraining), flushes every
// retry-wait point straight onto the heap — a drain should settle retries
// now, not after their backoff — and wakes every blocked worker so they
// drain the remaining queue and exit.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	for p, t := range s.timers {
		t.Stop()
		delete(s.timers, p)
		if p.state == pointRetryWait {
			s.delayed--
			p.state = pointPending
			heap.Push(&s.pending, p)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// runPoint executes one point with the same panic recovery as the in-process
// runner: a diverging simulation (or a chaos-injected panic) fails its point
// as a transient error — the point is evicted back to the retry loop, the
// worker survives, the job keeps going.
func runPoint(ctx context.Context, run func(context.Context, experiments.RunSpec) (sim.Tick, error),
	spec experiments.RunSpec) (ticks sim.Tick, err error) {
	defer func() {
		if p := recover(); p != nil {
			ticks, err = 0, fmt.Errorf("sweepd: %v panicked: %v\n%s", spec, p, debug.Stack())
		}
	}()
	return run(ctx, spec)
}
