package experiments

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"gem5rtl/internal/prof"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/stats"
)

// eventCounts flattens a report to its deterministic part: exact per-owner
// event counts. Host-time shares are sampled wall time and excluded from
// every comparison here, mirroring the BENCH gating policy.
func eventCounts(r *prof.Report) map[string]uint64 {
	out := map[string]uint64{}
	for _, s := range r.Samples {
		out[s.Component+"/"+s.Kind] += s.Events
	}
	return out
}

func diffCounts(t *testing.T, label string, got, want map[string]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d owners vs %d", label, len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s: owner %s counted %d events, want %d", label, k, got[k], n)
		}
	}
}

// TestSelfProfileObservational pins the tentpole contract: running a point
// with the self-profiler attached changes neither the completion tick nor
// the final simulated statistics — the simulated machine cannot see the
// profiler. (StateHash is excluded from the on/off comparison by design:
// with profiling on the checkpoint stream additionally carries the exact
// attribution table, which the digest covers.)
func TestSelfProfileObservational(t *testing.T) {
	spec := DSEParams{Scale: 64, Limit: 8 * sim.Second}.Spec("sanity3", 1, "DDR4-1ch", 64)
	ctx := context.Background()

	var offStats []stats.Sample
	offTicks, err := Run(ctx, spec, WithStats(func(s []stats.Sample) { offStats = s }))
	if err != nil {
		t.Fatal(err)
	}

	var onStats []stats.Sample
	var rep *prof.Report
	onTicks, err := Run(ctx, spec,
		WithStats(func(s []stats.Sample) { onStats = s }),
		WithSelfProfile(16, func(r *prof.Report) { rep = r }))
	if err != nil {
		t.Fatal(err)
	}

	if onTicks != offTicks {
		t.Errorf("profiling changed the result: %d ticks vs %d", onTicks, offTicks)
	}
	if !reflect.DeepEqual(onStats, offStats) {
		t.Errorf("profiling changed the final stats:\n%v\nvs\n%v", onStats, offStats)
	}
	if rep == nil || len(rep.Samples) == 0 {
		t.Fatal("profiled run delivered no attribution report")
	}
	if rep.TotalEvents() == 0 {
		t.Fatal("attribution report has zero events")
	}
	// The full table's shares must sum to 1 (allowing float rounding).
	var sum float64
	for _, row := range rep.Table(0) {
		sum += row.Share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("attribution shares sum to %v, want 1", sum)
	}
}

// TestAttributionCheckpointMatchesCold is the satellite regression: a
// warm-start (save/restore) run's event-count attribution must equal the
// cold run's exactly — the checkpoint carries the warm-up prefix's counts
// and AttachProfiler folds them back in on restore.
func TestAttributionCheckpointMatchesCold(t *testing.T) {
	spec := DSEParams{Scale: 64, Limit: 8 * sim.Second}.Spec("sanity3", 1, "DDR4-1ch", 64)
	ctx := context.Background()
	const warmup = 1 * sim.Microsecond

	var cold *prof.Report
	coldTicks, err := Run(ctx, spec, WithSelfProfile(16, func(r *prof.Report) { cold = r }))
	if err != nil {
		t.Fatal(err)
	}

	cache := NewCheckpointCache("")
	var populate *prof.Report
	if _, err := Run(ctx, spec, WithWarmStart(warmup, cache),
		WithSelfProfile(16, func(r *prof.Report) { populate = r })); err != nil {
		t.Fatal(err)
	}
	if cache.Len() == 0 {
		t.Fatal("warm-up run stored no snapshot")
	}

	var warm *prof.Report
	warmTicks, err := Run(ctx, spec, WithWarmStart(warmup, cache),
		WithSelfProfile(16, func(r *prof.Report) { warm = r }))
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatal("second run did not restore from the cache")
	}

	if warmTicks != coldTicks {
		t.Fatalf("warm run diverged: %d ticks vs %d", warmTicks, coldTicks)
	}
	want := eventCounts(cold)
	diffCounts(t, "populate run", eventCounts(populate), want)
	diffCounts(t, "restored run", eventCounts(warm), want)
}

// TestAttributionDeterministicAcrossWorkers sweeps the same specs with one
// and with four workers and requires identical per-point event-count
// attribution: counts only mutate inside each point's single-threaded
// dispatch loop, so worker count must not matter.
func TestAttributionDeterministicAcrossWorkers(t *testing.T) {
	specs := warmSpecs()
	ctx := context.Background()

	seq, err := Runner{Workers: 1, SelfProfile: 16}.Sweep(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Runner{Workers: 4, SelfProfile: 16}.Sweep(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}

	profiled := 0
	for i := range specs {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("point %v failed: seq=%v par=%v", specs[i], seq[i].Err, par[i].Err)
		}
		if specs[i].IsIdeal() {
			// Ideal baseline points share the normalisation cache and stay
			// unprofiled by design.
			if seq[i].Attr != nil || par[i].Attr != nil {
				t.Errorf("ideal point %v unexpectedly profiled", specs[i])
			}
			continue
		}
		if seq[i].Attr == nil || par[i].Attr == nil {
			t.Fatalf("point %v missing attribution: seq=%v par=%v",
				specs[i], seq[i].Attr != nil, par[i].Attr != nil)
		}
		diffCounts(t, specs[i].String(), eventCounts(par[i].Attr), eventCounts(seq[i].Attr))
		profiled++
	}
	if profiled == 0 {
		t.Fatal("sweep profiled no points")
	}
}

// collectReports returns an AttrSink that keeps every report it is handed.
func collectReports(dst *[]*prof.Report) func(*prof.Report) {
	var mu sync.Mutex
	return func(rep *prof.Report) {
		mu.Lock()
		*dst = append(*dst, rep)
		mu.Unlock()
	}
}

// TestTable2HonoursSelfProfile: the runner's profiling knob reaches Table 2 as
// it reaches a sweep — every cell runs profiled and hands its report to
// AttrSink.
func TestTable2HonoursSelfProfile(t *testing.T) {
	var reps []*prof.Report
	r := Runner{Workers: 1, SelfProfile: 16, AttrSink: collectReports(&reps)}
	if _, err := r.Table2(context.Background(), []int{20}, 10); err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(Table2Configs()) {
		t.Fatalf("%d attribution reports for %d Table 2 cells", len(reps), len(Table2Configs()))
	}
	for i, rep := range reps {
		if rep.TotalEvents() == 0 {
			t.Fatalf("report %d has zero events", i)
		}
	}
}

// TestPMUCampaignHonoursSelfProfile: the fault campaigns read the same knob —
// the reference run and every injection are profiled.
func TestPMUCampaignHonoursSelfProfile(t *testing.T) {
	var reps []*prof.Report
	r := Runner{Workers: 1, SelfProfile: 16, AttrSink: collectReports(&reps)}
	if _, err := r.PMUFaultCampaign(context.Background(), PMUCampaign{Seed: 3, Count: 2}); err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("%d attribution reports, want 3 (reference and two injections)", len(reps))
	}
	for i, rep := range reps {
		if rep.TotalEvents() == 0 {
			t.Fatalf("report %d has zero events", i)
		}
	}
}
