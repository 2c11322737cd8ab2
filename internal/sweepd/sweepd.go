// Package sweepd is the sweep-as-a-service layer: a long-running experiment
// server that accepts RunSpec batches over HTTP/JSON, spreads the points
// across a simulation worker pool, and memoises every result in a persistent
// store keyed by the spec's canonical fingerprint. Identical points — across
// jobs, clients and server restarts — simulate once and cache-hit forever.
//
// The service is a thin deterministic shell around the same primitives the
// in-process tools use: points execute through experiments.Run with
// Config.Options (the watchdog option a gem5rtl runner takes, built by the
// same cli.Flags.Options), results are normalised
// exactly like experiments.Runner.Sweep (an ideal-memory baseline is
// scheduled automatically for every technology point), and the canonical result
// encoding is shared with the sweepctl client so a served sweep diffs
// byte-identical against an in-process one.
//
// Endpoints (see Server.Handler):
//
//	POST   /v1/jobs              submit a batch  {client, priority, specs}
//	GET    /v1/jobs/{id}         job status
//	GET    /v1/jobs/{id}/results canonical results (submit order), once done
//	GET    /v1/jobs/{id}/stream  live JSONL progress (host interval records)
//	DELETE /v1/jobs/{id}         cancel: queued points are skipped
//	GET    /v1/status            server-wide status
//	GET    /v1/metrics           Prometheus text-format fleet metrics
//	GET    /v1/healthz           liveness/readiness probe (503 while draining)
//	GET    /v1/quarantine        quarantined (poison) points + corrupt store files
//	DELETE /v1/quarantine/{fp}   un-quarantine a point so it may simulate again
//	POST   /v1/drain             stop accepting jobs, finish the queue
//
// The execution layer is fault tolerant: transient failures (hangs, blown
// per-point deadlines, worker panics) retry on a seeded
// exponential-backoff-plus-jitter schedule that is a pure function of
// (seed, fingerprint, attempt) — identical at any worker count; permanent
// failures and points that exhaust their attempt budget are quarantined in a
// persistent poison store and served as errors instead of re-simulating;
// submissions beyond the queue depth bound or a client's quota are shed with
// HTTP 429 and a Retry-After hint.
package sweepd

import (
	"fmt"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/sim"
)

// PointResult is the canonical per-point result record: what the results
// endpoint returns, what sweepctl prints, and what an in-process
// Runner.Sweep converts to for byte-identical comparison. It deliberately
// excludes host-side measurements (wall time, cache hits) so two runs of the
// same sweep — served or local, cold or fully cached — encode identically.
type PointResult struct {
	Spec  experiments.RunSpec `json:"spec"`
	Ticks sim.Tick            `json:"ticks"`
	// Perf is Ticks(ideal baseline) / Ticks, 1 for ideal points, 0 on error —
	// the same normalisation as experiments.Result.Perf.
	Perf float64 `json:"perf"`
	Err  string  `json:"err,omitempty"`
}

// FromRunnerResults converts an in-process sweep into the canonical result
// records. sweepctl's local mode uses it so `sweepctl local` and a served
// submission of the same batch produce byte-identical output.
func FromRunnerResults(results []experiments.Result) []PointResult {
	out := make([]PointResult, len(results))
	for i, r := range results {
		out[i] = PointResult{Spec: r.Spec, Ticks: r.Ticks, Perf: r.Perf}
		if r.Err != nil {
			out[i].Err = r.Err.Error()
			out[i].Ticks, out[i].Perf = 0, 0
		}
	}
	return out
}

// JobState is the lifecycle of a submitted job.
type JobState string

const (
	// JobRunning covers the whole active phase: points queued or simulating.
	JobRunning JobState = "running"
	// JobDone means every point reached a terminal state; results are ready.
	JobDone JobState = "done"
	// JobCancelled means the client cancelled; queued points were skipped.
	JobCancelled JobState = "cancelled"
)

// JobStatus is the status endpoint's payload.
type JobStatus struct {
	ID       string   `json:"id"`
	Client   string   `json:"client,omitempty"`
	Priority int      `json:"priority"`
	State    JobState `json:"state"`
	// Total counts the job's simulation points including the hidden ideal
	// baselines scheduled for normalisation.
	Total int `json:"total"`
	Done  int `json:"done"`
	// CachedAtSubmit counts points served from the result store at submit
	// time without touching the queue. A fully warm resubmission has
	// CachedAtSubmit == Total and never simulates.
	CachedAtSubmit int `json:"cached_at_submit"`
	Failed         int `json:"failed"`
	Running        int `json:"running"`
	Pending        int `json:"pending"`
}

// ServerStatus is the server-wide status payload.
type ServerStatus struct {
	Jobs          int `json:"jobs"`
	ActiveJobs    int `json:"active_jobs"`
	PointsPending int `json:"points_pending"`
	PointsRunning int `json:"points_running"`
	// PointsRetrying counts points sitting out a retry backoff.
	PointsRetrying int `json:"points_retrying"`
	// Retries counts retry attempts scheduled since boot.
	Retries  uint64 `json:"retries"`
	StoreLen int    `json:"store_len"`
	// Quarantined counts poison points (see /v1/quarantine);
	// StoreQuarantined counts corrupt result and poison files the boot
	// integrity scans moved to their quarantine/ subdirectories.
	Quarantined      int  `json:"quarantined"`
	StoreQuarantined int  `json:"store_quarantined"`
	Draining         bool `json:"draining"`
	Workers          int  `json:"workers"`
}

// HealthStatus is the healthz payload: a load balancer's readiness signal
// (the endpoint answers 503 while draining or with workers missing) plus the
// numbers an operator wants first during an incident.
type HealthStatus struct {
	OK       bool `json:"ok"`
	Draining bool `json:"draining"`
	// WorkersLive counts worker goroutines currently alive, WorkersBusy the
	// subset executing a point right now.
	WorkersLive int `json:"workers_live"`
	WorkersBusy int `json:"workers_busy"`
	// QueueDepth counts waiting points: pending plus retry-wait.
	QueueDepth int `json:"queue_depth"`
	Retrying   int `json:"retrying"`
	// Quarantined counts poison points; StoreQuarantined corrupt store files.
	Quarantined      int `json:"quarantined"`
	StoreQuarantined int `json:"store_quarantined"`
}

// QuarantineList is the quarantine endpoint's payload.
type QuarantineList struct {
	// Points are the poison records, sorted by fingerprint.
	Points []PoisonRecord `json:"points"`
	// StoreFiles counts corrupt result and poison files moved aside by the
	// boot scans (kept in quarantine/ subdirectories for post-mortems).
	StoreFiles int `json:"store_files"`
}

// SubmitRequest is the submit endpoint's request body, decoded strictly: an
// unknown field (a typo'd option) rejects the batch.
type SubmitRequest struct {
	// Client identifies the submitter for quota accounting ("" is a shared
	// anonymous bucket).
	Client string `json:"client,omitempty"`
	// Priority orders the queue: higher runs first; ties run in submit order.
	Priority int `json:"priority,omitempty"`
	// Specs is the batch, validated like every other entry point
	// (experiments.RunSpec.Validate).
	Specs []experiments.RunSpec `json:"specs"`
}

// SubmitResponse acknowledges a submission.
type SubmitResponse struct {
	ID string `json:"id"`
	// Points is the job's total point count including hidden baselines.
	Points int `json:"points"`
	// Cached counts points satisfied from the result store at submit time.
	Cached int `json:"cached"`
}

// errorResponse is the JSON error body every endpoint uses.
type errorResponse struct {
	Error string `json:"error"`
}

func errorf(format string, args ...any) errorResponse {
	return errorResponse{Error: fmt.Sprintf(format, args...)}
}
