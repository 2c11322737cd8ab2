package sweepd

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gem5rtl/internal/experiments"
	"gem5rtl/internal/sim"
)

// fakeTicks is the deterministic stand-in executor for unit tests: ideal
// points take 1000 ticks, technology points 2000, so every Perf is 0.5.
func fakeTicks(spec experiments.RunSpec) sim.Tick {
	if spec.IsIdeal() {
		return 1000
	}
	return 2000
}

// countingRun wraps fakeTicks with an execution counter.
func countingRun(n *atomic.Int64) func(context.Context, experiments.RunSpec) (sim.Tick, error) {
	return func(ctx context.Context, spec experiments.RunSpec) (sim.Tick, error) {
		n.Add(1)
		return fakeTicks(spec), nil
	}
}

func testSpec(memory string, inflight int) experiments.RunSpec {
	return experiments.DSEParams{Scale: 32, Limit: 8 * sim.Second}.Spec("sanity3", 1, memory, inflight)
}

// waitDone blocks until the job finishes or the test times out.
func waitDone(t *testing.T, j *job) {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(10 * time.Second):
		t.Fatal("job did not finish")
	}
}

func TestStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec("HBM", 16)
	if err := st.Put(spec, 4242); err != nil {
		t.Fatal(err)
	}

	// A torn or hand-edited file must not survive the boot integrity gate.
	if err := os.WriteFile(filepath.Join(dir, strings.Repeat("0", 64)+".json"),
		[]byte(`{"spec":`), 0o644); err != nil {
		t.Fatal(err)
	}
	wrongName := testSpec("GDDR5", 16)
	buf, _ := os.ReadFile(filepath.Join(dir, spec.Fingerprint()+".json"))
	if err := os.WriteFile(filepath.Join(dir, wrongName.Fingerprint()+".json"), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1 {
		t.Fatalf("reopened store has %d entries, want 1 (corrupt files quarantined)", re.Len())
	}
	e, ok := re.Get(spec.Fingerprint())
	if !ok || e.Ticks != 4242 {
		t.Fatalf("reopened store lost the result: %+v ok=%v", e, ok)
	}
	// The corrupt files were moved to quarantine/, counted, and preserved.
	if re.Quarantined() != 2 {
		t.Errorf("quarantined %d files, want 2", re.Quarantined())
	}
	moved, err := os.ReadDir(filepath.Join(dir, StoreQuarantineDir))
	if err != nil || len(moved) != 2 {
		t.Errorf("quarantine dir has %d files (err=%v), want 2", len(moved), err)
	}
	if _, err := os.Stat(filepath.Join(dir, wrongName.Fingerprint()+".json")); !os.IsNotExist(err) {
		t.Error("mismatched file still sits in the store root")
	}
}

func TestSubmitSchedulesBaselinesAndDedupes(t *testing.T) {
	var runs atomic.Int64
	s, err := New(Config{Workers: 2, RunPoint: countingRun(&runs)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Start()

	// Two technology points with the same shape share one hidden ideal
	// baseline; a duplicated spec collapses into one point.
	specs := []experiments.RunSpec{testSpec("HBM", 16), testSpec("DDR4-1ch", 16), testSpec("HBM", 16)}
	j, err := s.sched.submit(s.store, SubmitRequest{Specs: specs}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.points) != 3 {
		t.Errorf("job has %d points, want 3 (two tech + one shared baseline)", len(j.points))
	}
	waitDone(t, j)
	if got := runs.Load(); got != 3 {
		t.Errorf("executed %d points, want 3", got)
	}

	results, done := s.sched.results(j)
	if !done {
		t.Fatal("results not ready after done")
	}
	if len(results) != 3 {
		t.Fatalf("got %d results for 3 submitted specs", len(results))
	}
	for i, r := range results {
		if r.Err != "" || r.Ticks != 2000 || r.Perf != 0.5 {
			t.Errorf("result[%d] = %+v, want ticks=2000 perf=0.5", i, r)
		}
	}
}

func TestSecondSubmissionFullyCached(t *testing.T) {
	var runs atomic.Int64
	s, err := New(Config{Workers: 1, RunPoint: countingRun(&runs)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Start()

	specs := []experiments.RunSpec{testSpec("HBM", 16), testSpec("DDR4-1ch", 16)}
	j1, err := s.sched.submit(s.store, SubmitRequest{Specs: specs}, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	first := runs.Load()

	j2, err := s.sched.submit(s.store, SubmitRequest{Specs: specs}, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if j2.cached != len(j2.points) {
		t.Errorf("resubmission cached %d of %d points, want all", j2.cached, len(j2.points))
	}
	if runs.Load() != first {
		t.Errorf("resubmission re-simulated %d points", runs.Load()-first)
	}
	r1, _ := s.sched.results(j1)
	r2, _ := s.sched.results(j2)
	if string(EncodeResults(r1)) != string(EncodeResults(r2)) {
		t.Error("cached results are not byte-identical to the original")
	}
}

func TestRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	s1, err := New(Config{Workers: 1, StoreDir: dir, RunPoint: countingRun(&runs)})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	specs := []experiments.RunSpec{testSpec("HBM", 16)}
	j, err := s1.sched.submit(s1.store, SubmitRequest{Specs: specs}, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	s1.Close()

	// Entries on disk may carry a "shards" or an "rtl_engine" key inside the
	// spec (servers wrote the spec as submitted, and submissions could set
	// them). Neither ever was part of the fingerprint, so such a file is a
	// valid result under its name: the boot scan must load it, not quarantine
	// it.
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 2 {
		t.Fatalf("store holds %d entries, want the point and its baseline", len(files))
	}
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		legacy := strings.Replace(string(buf), `,"limit":8000000000000}`, `,"limit":8000000000000,"shards":2,"rtl_engine":"closure"}`, 1)
		if legacy == string(buf) {
			t.Fatalf("entry %s not in the expected format: %s", filepath.Base(f), buf)
		}
		if err := os.WriteFile(f, []byte(legacy), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := New(Config{Workers: 1, StoreDir: dir, RunPoint: countingRun(&runs)})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if q := s2.store.Quarantined(); q != 0 {
		t.Fatalf("boot scan quarantined %d valid entries carrying shards and rtl_engine keys", q)
	}
	s2.Start()
	before := runs.Load()
	j2, err := s2.sched.submit(s2.store, SubmitRequest{Specs: specs}, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if j2.cached != len(j2.points) || runs.Load() != before {
		t.Errorf("restarted server re-simulated: cached=%d/%d runs=%d (was %d)",
			j2.cached, len(j2.points), runs.Load(), before)
	}
}

func TestQuotaBoundsFreshPoints(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	s, err := New(Config{Workers: 1, Quota: 3,
		RunPoint: func(ctx context.Context, spec experiments.RunSpec) (sim.Tick, error) {
			<-block
			return fakeTicks(spec), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { once.Do(func() { close(block) }); s.Close() }()
	s.Start()

	// First batch: 2 tech + 1 baseline = 3 fresh points, exactly the quota.
	ok := SubmitRequest{Client: "alice", Specs: []experiments.RunSpec{testSpec("HBM", 16), testSpec("DDR4-1ch", 16)}}
	if _, err := s.sched.submit(s.store, ok, s.cfg.Quota); err != nil {
		t.Fatalf("within-quota submit rejected: %v", err)
	}
	// Second batch while the first is live: 2 more fresh points > quota.
	over := SubmitRequest{Client: "alice", Specs: []experiments.RunSpec{testSpec("GDDR5", 64)}}
	if _, err := s.sched.submit(s.store, over, s.cfg.Quota); err == nil {
		t.Fatal("over-quota submit accepted")
	} else if !strings.Contains(err.Error(), "quota") {
		t.Fatalf("quota error does not say so: %v", err)
	}
	// A different client has its own bucket.
	if _, err := s.sched.submit(s.store, SubmitRequest{Client: "bob",
		Specs: []experiments.RunSpec{testSpec("GDDR5", 64)}}, s.cfg.Quota); err != nil {
		t.Fatalf("other client's submit rejected: %v", err)
	}
	once.Do(func() { close(block) })
}

func TestCancelSkipsQueuedPoints(t *testing.T) {
	started := make(chan string, 16)
	block := make(chan struct{})
	var once sync.Once
	s, err := New(Config{Workers: 1,
		RunPoint: func(ctx context.Context, spec experiments.RunSpec) (sim.Tick, error) {
			started <- spec.Memory
			<-block
			return fakeTicks(spec), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { once.Do(func() { close(block) }); s.Close() }()
	s.Start()

	specs := []experiments.RunSpec{testSpec("HBM", 16), testSpec("DDR4-1ch", 16)}
	j, err := s.sched.submit(s.store, SubmitRequest{Specs: specs}, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-started // first point is on the worker
	if _, ok := s.sched.cancel(j.id); !ok {
		t.Fatal("cancel did not find the job")
	}
	once.Do(func() { close(block) })
	waitDone(t, j)

	st := s.sched.status(j)
	if st.State != JobCancelled {
		t.Errorf("state %q, want cancelled", st.State)
	}
	results, done := s.sched.results(j)
	if !done {
		t.Fatal("cancelled job has no results")
	}
	skipped := 0
	for _, r := range results {
		if strings.Contains(r.Err, "cancelled") {
			skipped++
		}
	}
	if skipped == 0 {
		t.Errorf("no queued point was skipped: %+v", results)
	}
	select {
	case mem := <-started:
		t.Errorf("point %s simulated after cancel", mem)
	default:
	}
}

func TestPriorityOrdersQueue(t *testing.T) {
	order := make(chan int, 16)
	gate := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(1)
	first := true
	s, err := New(Config{Workers: 1,
		RunPoint: func(ctx context.Context, spec experiments.RunSpec) (sim.Tick, error) {
			if first {
				first = false
				entered.Done()
				<-gate // hold the only worker while the queue builds up
			} else {
				order <- spec.Inflight
			}
			return fakeTicks(spec), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Start()

	// Occupy the worker with a throwaway job.
	warm, err := s.sched.submit(s.store, SubmitRequest{Specs: []experiments.RunSpec{testSpec("ideal", 1)}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	entered.Wait()
	// Queue a low-priority then a high-priority job; the high one must run
	// first once the worker frees up.
	lo, err := s.sched.submit(s.store, SubmitRequest{Priority: 0,
		Specs: []experiments.RunSpec{testSpec("ideal", 2)}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := s.sched.submit(s.store, SubmitRequest{Priority: 5,
		Specs: []experiments.RunSpec{testSpec("ideal", 3)}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	waitDone(t, warm)
	waitDone(t, lo)
	waitDone(t, hi)
	if a, b := <-order, <-order; a != 3 || b != 2 {
		t.Errorf("execution order inflight=%d then %d, want the priority-5 job (inflight=3) first", a, b)
	}
}

func TestDrainStopsIntakeAndFinishesQueue(t *testing.T) {
	var runs atomic.Int64
	s, err := New(Config{Workers: 1, RunPoint: countingRun(&runs)})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	j, err := s.sched.submit(s.store, SubmitRequest{Specs: []experiments.RunSpec{testSpec("HBM", 16)}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitDone(t, j)
	if runs.Load() != 2 {
		t.Errorf("drain finished %d points, want 2 (point + baseline)", runs.Load())
	}
	if _, err := s.sched.submit(s.store, SubmitRequest{Specs: []experiments.RunSpec{testSpec("HBM", 64)}}, 0); err == nil {
		t.Error("submit accepted after drain")
	}
}
