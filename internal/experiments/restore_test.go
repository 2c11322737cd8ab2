package experiments

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/stats"
)

// runRestored runs spec through Run's lifecycle with one checkpoint split:
// built with opts attached, run to warmup and saved there, restored into a
// fresh soc.Build with opts attached again, and completed in that system —
// the path gem5rtl -checkpoint-at/-restore and the benchmark's stagedWarm
// take. warmup 0 runs the point unsplit. It returns the completion tick and
// the system the run ended in, for its digest; a point that completes inside
// the warm-up window ends in the system it started in.
func runRestored(ctx context.Context, spec RunSpec, warmup sim.Tick, opts ...Option) (sim.Tick, *soc.System, error) {
	o := resolve(opts)
	s, err := buildPoint(spec, soc.Oracles{})
	if err == nil {
		err = o.attach(s)
	}
	if err != nil {
		return 0, nil, err
	}
	if warmup > 0 {
		done, remaining, err := s.RunNVDLAPhase(ctx, warmup)
		if err != nil || remaining == 0 {
			return done, s, o.finish(s, err)
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			return 0, nil, err
		}
		if s, err = soc.Build(specConfig(spec)); err == nil {
			err = o.attach(s)
		}
		if err != nil {
			return 0, nil, err
		}
		if _, err := s.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			return 0, nil, err
		}
	}
	done, err := o.complete(ctx, s, spec.Limit)
	return done, s, err
}

// warmSpecs is a small sanity3 sub-grid: two memory technologies and two
// in-flight caps, plus the shared ideal baselines the runner adds itself.
func warmSpecs() []RunSpec {
	p := DSEParams{Scale: 64, Limit: 8 * sim.Second}
	var specs []RunSpec
	for _, inflight := range []int{16, 64} {
		specs = append(specs, p.Spec("sanity3", 1, "ideal", inflight))
		for _, mem := range []string{"DDR4-1ch", "HBM"} {
			specs = append(specs, p.Spec("sanity3", 1, mem, inflight))
		}
	}
	return specs
}

// TestWarmStartMatchesCold sweeps the same grid twice — cold, and with every
// point (its ideal baseline included) saved at 1 µs and completed in a
// restored machine — and requires identical results throughout.
func TestWarmStartMatchesCold(t *testing.T) {
	specs := warmSpecs()
	ctx := context.Background()

	cold, err := Runner{Workers: 1}.Sweep(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Runner{Workers: 1, Run: func(ctx context.Context, spec RunSpec) (sim.Tick, error) {
		done, _, err := runRestored(ctx, spec, 1*sim.Microsecond)
		return done, err
	}}.Sweep(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if restored[i].Err != nil {
			t.Fatalf("%v: %v", specs[i], restored[i].Err)
		}
		if restored[i].Ticks != cold[i].Ticks || restored[i].Perf != cold[i].Perf {
			t.Errorf("%v diverges from cold: ticks %d vs %d, perf %g vs %g",
				specs[i], restored[i].Ticks, cold[i].Ticks, restored[i].Perf, cold[i].Perf)
		}
	}
}

// TestWarmStartPersistsToDir checks the cross-process path gem5rtl
// -checkpoint-at/-restore takes: a point saved at 1 µs to a checkpoint file
// in a directory, restored from that file into a fresh build (a fresh
// process stand-in) and completed there, ends at the cold run's tick with
// the cold run's statistics.
func TestWarmStartPersistsToDir(t *testing.T) {
	spec := DSEParams{Scale: 64, Limit: 8 * sim.Second}.Spec("sanity3", 1, "DDR4-1ch", 64)
	ctx := context.Background()

	var coldStats, restoredStats []stats.Sample
	cold, err := Run(ctx, spec, WithStats(func(s []stats.Sample) { coldStats = s }))
	if err != nil {
		t.Fatal(err)
	}

	s, err := buildPoint(spec, soc.Oracles{})
	if err != nil {
		t.Fatal(err)
	}
	if _, remaining, err := s.RunNVDLAPhase(ctx, 1*sim.Microsecond); err != nil || remaining == 0 {
		t.Fatalf("warm-up to 1 µs: %d accelerators left, err %v; want the point still running", remaining, err)
	}
	path := filepath.Join(t.TempDir(), "point.ckpt")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	fresh, err := soc.Build(specConfig(spec))
	if err != nil {
		t.Fatal(err)
	}
	tick, err := fresh.RestoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tick != uint64(s.Queue.Now()) {
		t.Errorf("restored at tick %d, saved at %d", tick, s.Queue.Now())
	}
	restored, err := resolve([]Option{WithStats(func(s []stats.Sample) { restoredStats = s })}).
		complete(ctx, fresh, spec.Limit)
	if err != nil {
		t.Fatal(err)
	}
	if restored != cold {
		t.Errorf("restored run ends at %d, cold at %d", restored, cold)
	}
	if len(coldStats) == 0 {
		t.Fatal("cold run reported no statistics")
	}
	if !reflect.DeepEqual(restoredStats, coldStats) {
		t.Errorf("restored run's statistics differ from the cold run's:\nrestored %v\ncold     %v", restoredStats, coldStats)
	}
}
