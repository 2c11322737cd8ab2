package experiments

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"gem5rtl/internal/sim"
)

// determinismSpecs is a small but representative grid: two in-flight caps,
// the ideal baseline and two technologies, all sharing baselines per cap.
func determinismSpecs() []RunSpec {
	p := DSEParams{Scale: 64, Limit: 4 * sim.Second}
	var specs []RunSpec
	for _, inflight := range []int{1, 64} {
		specs = append(specs,
			p.Spec("sanity3", 1, "ideal", inflight),
			p.Spec("sanity3", 1, "DDR4-1ch", inflight),
			p.Spec("sanity3", 1, "HBM", inflight),
		)
	}
	return specs
}

// TestSweepParallelMatchesSequential is the determinism guarantee behind
// the -parallel flag: every point simulates on its own event queue, so the
// parallel sweep must return tick-identical results to the sequential path.
func TestSweepParallelMatchesSequential(t *testing.T) {
	specs := determinismSpecs()
	seq, err := Runner{Workers: 1}.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Runner{Workers: 4}.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(specs) || len(par) != len(specs) {
		t.Fatalf("result lengths %d/%d, want %d", len(seq), len(par), len(specs))
	}
	for i := range specs {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("%v: errs %v / %v", specs[i], seq[i].Err, par[i].Err)
		}
		if seq[i].Spec != specs[i] || par[i].Spec != specs[i] {
			t.Fatalf("index %d: results out of input order (%v / %v, want %v)",
				i, seq[i].Spec, par[i].Spec, specs[i])
		}
		if seq[i].Ticks != par[i].Ticks {
			t.Fatalf("%v: sequential %d ticks vs parallel %d ticks",
				specs[i], seq[i].Ticks, par[i].Ticks)
		}
		if seq[i].Perf != par[i].Perf {
			t.Fatalf("%v: sequential perf %v vs parallel perf %v",
				specs[i], seq[i].Perf, par[i].Perf)
		}
	}
}

// TestSweepCancellation drives real simulations at full trace scale (each
// point takes far longer than the deadline) and checks that the in-loop
// context watcher aborts the sweep promptly with ctx.Err().
func TestSweepCancellation(t *testing.T) {
	p := DSEParams{Scale: 1, Limit: 8 * sim.Second}
	// Four GoogleNet accelerators: some 300 ms a point. (One sanity3
	// accelerator, this test's points until sleeping RTLObjects, had come
	// down to 35 ms and finished inside the deadline as often as not.)
	specs := []RunSpec{
		p.Spec("googlenet", 4, "DDR4-1ch", 64),
		p.Spec("googlenet", 4, "HBM", 64),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	results, err := Runner{Workers: 2}.Sweep(ctx, specs)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Sweep error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("sweep took %s after a 50ms deadline", elapsed)
	}
	for i, res := range results {
		if res.Err == nil {
			t.Fatalf("point %d completed despite cancellation", i)
		}
		if !errors.Is(res.Err, context.DeadlineExceeded) {
			t.Fatalf("point %d error = %v, want context.DeadlineExceeded", i, res.Err)
		}
	}
}

// TestSweepPanicRecovery: a diverging point must become an error Result,
// not kill the sweep.
func TestSweepPanicRecovery(t *testing.T) {
	p := DSEParams{Scale: 64, Limit: 4 * sim.Second}
	specs := []RunSpec{
		p.Spec("sanity3", 1, "ideal", 8),
		p.Spec("sanity3", 1, "boom", 8),
		p.Spec("sanity3", 1, "DDR4-4ch", 8),
	}
	fake := func(ctx context.Context, spec RunSpec) (sim.Tick, error) {
		switch spec.Memory {
		case "boom":
			panic("diverging simulation")
		case "ideal":
			return 1000, nil
		default:
			return 2000, nil
		}
	}
	results, err := Runner{Workers: 2, Run: fake}.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[0].Ticks != 1000 || results[0].Perf != 1 {
		t.Fatalf("ideal result corrupted: %+v", results[0])
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "panicked") {
		t.Fatalf("panic not recovered into Result.Err: %+v", results[1])
	}
	// The recovered error carries the panicking goroutine's stack trace and
	// the failing spec, so a campaign log is debuggable after the fact.
	if msg := results[1].Err.Error(); !strings.Contains(msg, "goroutine") {
		t.Fatalf("recovered panic carries no stack trace:\n%s", msg)
	} else if !strings.Contains(msg, results[1].Spec.String()) {
		t.Fatalf("recovered panic does not name the failing spec:\n%s", msg)
	}
	if results[2].Err != nil || results[2].Ticks != 2000 || results[2].Perf != 0.5 {
		t.Fatalf("tech result wrong: %+v", results[2])
	}
}

// TestSweepBaselinePanicPropagates: a panicking ideal baseline surfaces as
// an error on every point normalised against it.
func TestSweepBaselinePanicPropagates(t *testing.T) {
	p := DSEParams{Scale: 64, Limit: 4 * sim.Second}
	specs := []RunSpec{
		p.Spec("sanity3", 1, "DDR4-1ch", 8),
		p.Spec("sanity3", 1, "HBM", 8),
	}
	fake := func(ctx context.Context, spec RunSpec) (sim.Tick, error) {
		if spec.isIdeal() {
			panic("baseline diverged")
		}
		return 2000, nil
	}
	results, err := Runner{Workers: 2, Run: fake}.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err == nil || !strings.Contains(res.Err.Error(), "panicked") {
			t.Fatalf("point %d: baseline panic not propagated: %+v", i, res)
		}
	}
}

// TestSweepBaselineCacheDedup: each distinct ideal baseline is simulated
// exactly once per sweep, however many points consume it.
func TestSweepBaselineCacheDedup(t *testing.T) {
	p := DSEParams{Scale: 64, Limit: 4 * sim.Second}
	var specs []RunSpec
	for _, inflight := range []int{8, 64} {
		specs = append(specs, p.Spec("sanity3", 1, "ideal", inflight))
		for _, tech := range memTechs() {
			specs = append(specs, p.Spec("sanity3", 1, tech, inflight))
		}
	}
	var mu sync.Mutex
	calls := map[RunSpec]int{}
	fake := func(ctx context.Context, spec RunSpec) (sim.Tick, error) {
		mu.Lock()
		calls[spec]++
		mu.Unlock()
		if spec.isIdeal() {
			return 1000, nil
		}
		return 4000, nil
	}
	results, err := Runner{Workers: 4, Run: fake}.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, inflight := range []int{8, 64} {
		key := p.Spec("sanity3", 1, "ideal", inflight)
		mu.Lock()
		n := calls[key]
		mu.Unlock()
		if n != 1 {
			t.Fatalf("ideal baseline inflight=%d simulated %d times, want 1", inflight, n)
		}
	}
	for _, res := range results {
		if res.Err != nil {
			t.Fatalf("%v: %v", res.Spec, res.Err)
		}
		want := 1.0
		if !res.Spec.isIdeal() {
			want = 0.25
		}
		if res.Perf != want {
			t.Fatalf("%v: perf %v, want %v", res.Spec, res.Perf, want)
		}
	}
}

// TestForEachPanicAndOrder: the generic pool recovers panics and reports
// the first error in index order.
func TestForEachPanicAndOrder(t *testing.T) {
	got := make([]int, 8)
	err := Runner{Workers: 3}.ForEach(context.Background(), 8, func(ctx context.Context, i int) error {
		got[i] = i + 1
		if i == 5 {
			panic("item exploded")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "item 5 panicked") {
		t.Fatalf("err = %v, want recovered panic from item 5", err)
	}
	if !strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("recovered panic carries no stack trace:\n%s", err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("item %d not executed", i)
		}
	}
}

// TestDSEFigureParallelMatchesSequential compares the figure-level API on a
// reduced grid by shrinking the sweep axes for the duration of the test.
func TestDSEFigureParallelMatchesSequential(t *testing.T) {
	oldInflight, oldCounts := InflightSweep, NVDLACounts
	InflightSweep, NVDLACounts = []int{1, 64}, []int{1}
	defer func() { InflightSweep, NVDLACounts = oldInflight, oldCounts }()

	p := DSEParams{Scale: 64, Limit: 4 * sim.Second}
	seq, err := Runner{Workers: 1}.DSEFigure(context.Background(), "sanity3", p)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Runner{Workers: 4}.DSEFigure(context.Background(), "sanity3", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) || len(seq) != 2*(1+len(memTechs())) {
		t.Fatalf("point counts %d/%d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, seq[i], par[i])
		}
	}
}
