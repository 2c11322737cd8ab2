package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"time"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/sweepd"
)

// sweepdWorkload drives a live in-process sweep server over HTTP with two
// closed-loop clients. Cold (hit == false) boots a server on an empty store
// every pass, so every point simulates; hit populates one server in set-up
// and resubmits the same jobs, so every point is cached at submit.
type sweepdWorkload struct {
	hit     bool
	workers int
	jobs    [2][]jobSpec
	// union lists every point any job asks for, once.
	union []experiments.RunSpec
	live  *liveServer // the populated server of the hit variant
}

// jobSpec is one submission and what the service must answer.
type jobSpec struct {
	specs    []experiments.RunSpec
	body     []byte // the submit request
	want     []byte // the canonical results document
	simTicks uint64 // simulated time the results stand for
}

const (
	pollEvery = 2 * time.Millisecond
	// hitRounds is how often a hit pass resubmits every job.
	hitRounds      = 100
	hitRoundsSmall = 2
)

// serviceWorkers is the load the contract allows: at most two goroutines
// generate it, and the server matches them.
func serviceWorkers() int { return min(2, runtime.NumCPU()) }

// liveServer is a sweepd.Server behind a loopback listener.
type liveServer struct {
	srv  *sweepd.Server
	http *http.Server
	url  string
	dir  string
	done chan struct{}
}

func bootServer(e *env, workers, selfProfile int) (*liveServer, error) {
	dir, err := os.MkdirTemp(e.tmpDir, "store-")
	if err != nil {
		return nil, err
	}
	srv, err := sweepd.New(sweepd.Config{Workers: workers, StoreDir: dir, SelfProfile: selfProfile})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	ls := &liveServer{srv: srv, http: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), dir: dir, done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		_ = ls.http.Serve(ln) // returns ErrServerClosed from stop
	}()
	return ls, nil
}

// stop shuts the listener and the worker pool down and waits for both.
func (ls *liveServer) stop() {
	_ = ls.http.Close()
	<-ls.done
	ls.srv.Close()
	os.RemoveAll(ls.dir)
}

// expected renders what the service must return for specs, through the
// same conversion and encoder an in-process sweep's results take.
func expected(g golden, specs []experiments.RunSpec) ([]byte, uint64, error) {
	results := make([]experiments.Result, len(specs))
	var ticks uint64
	for i, spec := range specs {
		ge, ok := g[pointKey(spec)]
		base, okb := g[pointKey(spec.Baseline())]
		if !ok || !okb {
			return nil, 0, fmt.Errorf("%v: no golden entry", spec)
		}
		results[i] = experiments.Result{Spec: spec, Ticks: sim.Tick(ge.Ticks),
			Perf: float64(base.Ticks) / float64(ge.Ticks)}
		ticks += ge.Ticks
	}
	return sweepd.EncodeResults(sweepd.FromRunnerResults(results)), ticks, nil
}

func (w *sweepdWorkload) setup(e *env) error {
	w.workers = serviceWorkers()
	w.union = nil
	seen := map[experiments.RunSpec]bool{}
	for c, jobs := range e.in.Jobs {
		w.jobs[c] = nil
		for _, specs := range jobs {
			for _, spec := range specs {
				if !seen[spec] {
					seen[spec] = true
					w.union = append(w.union, spec)
				}
			}
			body, err := json.Marshal(sweepd.SubmitRequest{Client: fmt.Sprintf("client%d", c), Specs: specs})
			if err != nil {
				return err
			}
			want, ticks, err := expected(e.gold, specs)
			if err != nil {
				return err
			}
			w.jobs[c] = append(w.jobs[c], jobSpec{specs: specs, body: body, want: want, simTicks: ticks})
		}
	}
	// The warm-up job is the one holding the contended cell, 4 NVDLAs on
	// DDR4-1ch, at its highest in-flight cap: the same job whatever the seed.
	warm, inflight := w.jobs[0][0], 0
	for _, jobs := range w.jobs {
		for _, j := range jobs {
			for _, spec := range j.specs {
				if spec.NVDLAs == 4 && spec.Memory == "DDR4-1ch" && spec.Inflight > inflight {
					warm, inflight = j, spec.Inflight
				}
			}
		}
	}
	// The golden-derived document is only as good as its derivation: hold
	// it against a real in-process sweep of the warm-up job.
	results, err := experiments.Runner{Workers: 1}.Sweep(e.ctx, warm.specs)
	if err != nil {
		return err
	}
	if got := sweepd.EncodeResults(sweepd.FromRunnerResults(results)); !bytes.Equal(got, warm.want) {
		return fmt.Errorf("in-process sweep of the warm-up job differs from the golden results:\n%s", got)
	}

	ls, err := bootServer(e, w.workers, 0)
	if err != nil {
		return err
	}
	var r recorder
	if !w.hit {
		// Warm-up op: one job through a throwaway server.
		w.client(e, ls, &r, nil, &svcStats{}, []jobSpec{warm}, 1)
		ls.stop()
	} else {
		// Populate: every job once, untimed.
		w.live = ls
		w.clients(e, ls, &r, nil, nil, 1)
	}
	if r.failed > 0 {
		w.close()
		return fmt.Errorf("warm-up: %s", r.errs[0])
	}
	return nil
}

func (w *sweepdWorkload) close() {
	if w.live != nil {
		w.live.stop()
		w.live = nil
	}
}

func (w *sweepdWorkload) rounds(e *env) int {
	switch {
	case !w.hit:
		return 1
	case e.in.Small:
		return hitRoundsSmall
	}
	return hitRounds
}

func (w *sweepdWorkload) pass(e *env, r *recorder) { w.run(e, r, nil, nil) }

func (w *sweepdWorkload) tracedPass(e *env, r *recorder, tr *tracer, acc *layerAcc) {
	w.run(e, r, tr, acc)
}

func (w *sweepdWorkload) run(e *env, r *recorder, tr *tracer, acc *layerAcc) {
	if w.hit {
		w.clients(e, w.live, r, tr, acc, w.rounds(e))
		return
	}
	// The reference of the cold workload's overhead ratio: the same
	// simulations swept in-process on as many workers, no service between.
	t0 := time.Now()
	_, err := experiments.Runner{Workers: w.workers}.Sweep(e.ctx, w.union)
	ref := time.Since(t0)
	if err != nil {
		r.done(err)
		return
	}
	selfProfile := 0
	if acc != nil {
		selfProfile = sim.DefaultProfileEvery
	}
	ls, err := bootServer(e, w.workers, selfProfile)
	if err != nil {
		r.done(err)
		return
	}
	if served := w.clients(e, ls, r, tr, acc, 1); served > 0 {
		r.ratios = append(r.ratios, float64(served)/float64(ref))
	}
	if acc != nil {
		if rep := ls.srv.Attr(); rep != nil {
			acc.attr.Merge(rep)
			acc.runNS += float64(rep.WallNS)
		}
	}
	ls.stop()
}

// svcStats is what clients saw of the service.
type svcStats struct {
	jobs, polls            int
	points, cached         int
	utilization            []float64
	submit, status, result []float64
}

func (s *svcStats) merge(o *svcStats) {
	s.jobs += o.jobs
	s.polls += o.polls
	s.points += o.points
	s.cached += o.cached
	s.utilization = append(s.utilization, o.utilization...)
	s.submit = append(s.submit, o.submit...)
	s.status = append(s.status, o.status...)
	s.result = append(s.result, o.result...)
}

// clients runs both closed-loop clients to completion and returns how long
// that took (0 if a job failed).
func (w *sweepdWorkload) clients(e *env, ls *liveServer, r *recorder, tr *tracer, acc *layerAcc, rounds int) time.Duration {
	storeBefore := ls.srv.Store().Len()
	recs := make([]recorder, len(w.jobs))
	svcs := make([]svcStats, len(w.jobs))
	trs := make([]*tracer, len(w.jobs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range w.jobs {
		c := c
		trs[c] = tr.fork()
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.client(e, ls, &recs[c], trs[c], &svcs[c], w.jobs[c], rounds)
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	for c := range recs {
		r.merge(&recs[c])
		if tr != nil {
			tr.merge(trs[c])
		}
		if acc != nil {
			acc.svc.merge(&svcs[c])
		}
	}
	if acc != nil {
		acc.svcWall += wall
		acc.svcWorkers = w.workers
		acc.storeGrowth += ls.srv.Store().Len() - storeBefore
	}
	if r.failed > 0 {
		return 0
	}
	return wall
}

var utilizationLine = regexp.MustCompile(`(?m)^` + sweepd.MetricsPrefix + `sweepd_workers_utilization (\S+)$`)

// client is one closed-loop client: for each job in turn it submits, polls
// the status until the job is done, and reads the results, which must be
// byte-identical to the expected document.
func (w *sweepdWorkload) client(e *env, ls *liveServer, r *recorder, tr *tracer, local *svcStats, jobs []jobSpec, rounds int) {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	defer hc.CloseIdleConnections()
	call := func(span string, parent, op int, method, url string, body []byte, want int) ([]byte, float64, error) {
		id := tr.begin(span, parent, op)
		t0 := time.Now()
		defer tr.end(id)
		req, err := http.NewRequestWithContext(e.ctx, method, url, bytes.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, 0, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, 0, err
		}
		if resp.StatusCode != want {
			return nil, 0, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, b)
		}
		return b, ms(time.Since(t0)), nil
	}
	one := func(j jobSpec, op int) (time.Duration, error) {
		t0 := time.Now()
		id := tr.begin("job", -1, op)
		defer tr.end(id)
		b, d, err := call("http.submit", id, op, http.MethodPost, ls.url+"/v1/jobs", j.body, http.StatusAccepted)
		if err != nil {
			return 0, err
		}
		local.submit = append(local.submit, d)
		var sub sweepd.SubmitResponse
		if err := json.Unmarshal(b, &sub); err != nil {
			return 0, err
		}
		local.points += sub.Points
		local.cached += sub.Cached
		for {
			b, d, err := call("http.poll", id, op, http.MethodGet, ls.url+"/v1/jobs/"+sub.ID, nil, http.StatusOK)
			if err != nil {
				return 0, err
			}
			local.polls++
			local.status = append(local.status, d)
			var st sweepd.JobStatus
			if err := json.Unmarshal(b, &st); err != nil {
				return 0, err
			}
			if st.State == sweepd.JobDone {
				if st.Failed > 0 {
					return 0, fmt.Errorf("job %s: %d points failed", sub.ID, st.Failed)
				}
				break
			}
			if st.State != sweepd.JobRunning {
				return 0, fmt.Errorf("job %s: state %s", sub.ID, st.State)
			}
			if tr != nil && local.polls%16 == 1 {
				// A scrape of the service's own gauge, now and then.
				if m, _, err := call("http.metrics", id, op, http.MethodGet, ls.url+"/v1/metrics", nil, http.StatusOK); err == nil {
					if sm := utilizationLine.FindSubmatch(m); sm != nil {
						u, _ := strconv.ParseFloat(string(sm[1]), 64)
						local.utilization = append(local.utilization, u)
					}
				}
			}
			select {
			case <-e.ctx.Done():
				return 0, e.ctx.Err()
			case <-time.After(pollEvery):
			}
		}
		b, d, err = call("http.results", id, op, http.MethodGet, ls.url+"/v1/jobs/"+sub.ID+"/results", nil, http.StatusOK)
		if err != nil {
			return 0, err
		}
		local.result = append(local.result, d)
		lat := time.Since(t0)
		if !bytes.Equal(b, j.want) {
			return 0, fmt.Errorf("job %s: results differ from the in-process encoding", sub.ID)
		}
		r.points += len(j.specs)
		return lat, nil
	}

	for round := 0; round < rounds; round++ {
		for i, j := range jobs {
			lat, err := one(j, round*len(jobs)+i)
			local.jobs++
			if !r.done(err) {
				continue
			}
			r.opMs = append(r.opMs, ms(lat))
			r.simTicks += j.simTicks
			if w.hit && i == 0 {
				// The hit workload's reference: the same document put
				// together straight from the store, no service between.
				t0 := time.Now()
				err := directRead(ls.srv.Store(), j)
				if ref := time.Since(t0); err == nil && ref > 0 {
					r.ratios = append(r.ratios, float64(lat)/float64(ref))
				}
			}
		}
	}
}

// directRead assembles a job's results document from the store the way the
// results endpoint does, without the service.
func directRead(st *sweepd.Store, j jobSpec) error {
	out := make([]sweepd.PointResult, len(j.specs))
	for i, spec := range j.specs {
		ent, ok := st.Get(spec.Fingerprint())
		base, okb := st.Get(spec.Baseline().Fingerprint())
		if !ok || !okb {
			return fmt.Errorf("%v: not in the store", spec)
		}
		out[i] = sweepd.PointResult{Spec: spec, Ticks: ent.Ticks, Perf: float64(base.Ticks) / float64(ent.Ticks)}
	}
	if !bytes.Equal(sweepd.EncodeResults(out), j.want) {
		return fmt.Errorf("direct store read differs from the expected document")
	}
	return nil
}

func (w *sweepdWorkload) extras(*env, *tracer, *layerAcc) error { return nil }

// svcFinish sets the service metrics from the traced passes.
func (a *layerAcc) svcFinish() {
	s := &a.svc
	if s.jobs == 0 {
		return
	}
	a.set("sweepd.submit_ms", median(s.submit))
	a.set("sweepd.status_ms", median(s.status))
	a.set("sweepd.results_ms", median(s.result))
	a.set("sweepd.polls_per_job", float64(s.polls)/float64(s.jobs))
	a.set("sweepd.cached_at_submit_ratio", ratio(float64(s.cached), float64(s.points)))
	a.set("sweepd.dedup_ratio", ratio(float64(a.storeGrowth), float64(s.points)))
	a.set("sweepd.worker_utilization", ratio(sum(s.utilization), float64(len(s.utilization))))
	// The part of the worker pool's time the service did not spend inside a
	// simulation: one minus profiled point time over workers x wall.
	a.set("sweepd.service_overhead_share", 1-ratio(float64(a.attr.WallNS), float64(a.svcWorkers)*float64(a.svcWall)))
	a.set("sweepd.jobs_per_s", ratio(float64(s.jobs), a.svcWall.Seconds()))
}
