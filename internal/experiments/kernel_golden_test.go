package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gem5rtl/internal/conform"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// kernelGoldenSpecs is the 12-config NVDLA grid of BenchmarkSweep: sanity3,
// one accelerator, every memory technology crossed with four in-flight caps.
func kernelGoldenSpecs() []RunSpec {
	p := DSEParams{Scale: 32, Limit: 8 * sim.Second}
	var specs []RunSpec
	for _, inflight := range []int{1, 16, 64, 240} {
		for _, mem := range []string{"DDR4-1ch", "DDR4-4ch", "HBM"} {
			specs = append(specs, p.Spec("sanity3", 1, mem, inflight))
		}
	}
	return specs
}

type kernelGoldenEntry struct {
	Spec  string   `json:"spec"`
	Ticks sim.Tick `json:"ticks"`
	Hash  string   `json:"state_hash"`
}

// runKernelGoldenPoint executes one grid point on the given oracles and
// digests the full post-run system state.
func runKernelGoldenPoint(t *testing.T, spec RunSpec, o soc.Oracles) kernelGoldenEntry {
	t.Helper()
	s, err := buildPoint(spec, o)
	if err != nil {
		t.Fatalf("%v: build: %v", spec, err)
	}
	done, err := s.RunUntilNVDLAsDoneCtx(context.Background(), spec.Limit)
	if err != nil {
		t.Fatalf("%v: run: %v", spec, err)
	}
	// The goldens hold the machine; this holds how the host ran it.
	checkMostlyElided(t, spec, s)
	return kernelGoldenEntry{Spec: spec.String(), Ticks: done, Hash: fmt.Sprintf("%016x", conform.Digest(t, s))}
}

// TestKernelGoldenStateHash pins the final simulated time AND the full
// serialised system state (conform.Digest) of every point in the 12-config NVDLA
// grid. It is the bit-identity witness for hot-path changes: any event-queue
// or allocation optimisation that perturbs event order, packet IDs, stats, or
// checkpoint bytes fails here. Regenerate with -update only for changes that
// intentionally alter simulated behaviour.
func TestKernelGoldenStateHash(t *testing.T) {
	if testing.Short() {
		t.Skip("full 12-config grid is not -short friendly")
	}
	t.Parallel()
	var got []kernelGoldenEntry
	for _, spec := range kernelGoldenSpecs() {
		got = append(got, runKernelGoldenPoint(t, spec, soc.Oracles{}))
	}

	path := filepath.Join("testdata", "kernel_golden.json")
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to capture): %v", err)
	}
	var want []kernelGoldenEntry
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d entries, grid has %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("grid point %s diverged:\n  got  ticks=%d hash=%s\n  want ticks=%d hash=%s",
				got[i].Spec, got[i].Ticks, got[i].Hash, want[i].Ticks, want[i].Hash)
		}
	}
}

// TestReferenceQueueMatchesGolden replays the same 12-config grid with the
// pure binary-heap reference queue and checks it against the same golden
// file. Together with TestKernelGoldenStateHash (which runs the calendar
// queue) this proves the two event-queue implementations produce identical
// state digests on every grid point — the determinism contract of the
// kernel rewrite.
func TestReferenceQueueMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full 12-config grid is not -short friendly")
	}
	t.Parallel()
	buf, err := os.ReadFile(filepath.Join("testdata", "kernel_golden.json"))
	if err != nil {
		t.Fatalf("missing golden file (run TestKernelGoldenStateHash -update to capture): %v", err)
	}
	var want []kernelGoldenEntry
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	specs := kernelGoldenSpecs()
	if len(want) != len(specs) {
		t.Fatalf("golden file has %d entries, grid has %d", len(want), len(specs))
	}
	for i, spec := range specs {
		got := runKernelGoldenPoint(t, spec, soc.Oracles{ReferenceQueue: true})
		if got != want[i] {
			t.Errorf("reference queue diverged on %s:\n  got  ticks=%d hash=%s\n  want ticks=%d hash=%s",
				got.Spec, got.Ticks, got.Hash, want[i].Ticks, want[i].Hash)
		}
	}
}
