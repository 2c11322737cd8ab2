package trace

import (
	"context"
	"testing"

	"gem5rtl/internal/nvdla"
)

func TestBuildStructure(t *testing.T) {
	tr := Build("t", []Layer{{
		InputAddr: 0x1000, WeightAddr: 0x2000, OutputAddr: 0x3000,
		InBytes: 4096, WtBytes: 2048, OutBytes: 1024,
		TileBytes: 2048, CyclesPerTile: 10,
	}})
	if tr.TotalReadBytes != 6144 || tr.TotalWriteBytes != 1024 {
		t.Fatalf("totals %d/%d", tr.TotalReadBytes, tr.TotalWriteBytes)
	}
	// 3 tiles x 10 cycles.
	if tr.ComputeCycles != 30 {
		t.Fatalf("compute cycles %d", tr.ComputeCycles)
	}
	// Last two ops are Start + WaitIRQ.
	n := len(tr.Ops)
	if tr.Ops[n-2].Kind != OpStart || tr.Ops[n-1].Kind != OpWaitIRQ {
		t.Fatal("trace does not end with start/wait")
	}
	// Preloads precede register writes.
	if tr.Ops[0].Kind != OpLoadMem {
		t.Fatal("trace does not start with memory preload")
	}
	// The register sequence includes a layer commit.
	committed := false
	for _, op := range tr.Ops {
		if op.Kind == OpWriteReg && op.Addr == nvdla.RegLayerCommit {
			committed = true
		}
	}
	if !committed {
		t.Fatal("no layer commit in register sequence")
	}
}

func TestByNameAndScaled(t *testing.T) {
	for _, name := range []string{"sanity3", "googlenet"} {
		full, err := ByName(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		scaled, err := Scaled(name, 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		if scaled.TotalReadBytes >= full.TotalReadBytes {
			t.Fatalf("%s: scaling did not shrink reads (%d vs %d)",
				name, scaled.TotalReadBytes, full.TotalReadBytes)
		}
		// Footprint shrinks roughly by the scale factor.
		ratio := float64(full.TotalReadBytes) / float64(scaled.TotalReadBytes)
		if ratio < 4 || ratio > 16 {
			t.Fatalf("%s: scale ratio %.1f out of range", name, ratio)
		}
	}
	if _, err := ByName("alexnet", 0); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestDemandCharacterisation(t *testing.T) {
	// The paper's characterisation: sanity3 is memory-intensive (higher
	// bandwidth demand) than the compute-heavier GoogleNet conv.
	s := sanity3Layers(0)[0].Demand()
	g := googleNetLayers(0)[0].Demand()
	if s <= g {
		t.Fatalf("sanity3 demand %.1f GB/s not above googlenet %.1f GB/s", s, g)
	}
	// Both exceed one DDR4 channel (18.75 GB/s) — the Figure 6/7 premise.
	if g < 18.75 {
		t.Fatalf("googlenet demand %.1f GB/s below one DDR4 channel", g)
	}
	// And sanity3 stays below two channels, so DDR4-2ch can approach 1.0.
	if s > 37.5 {
		t.Fatalf("sanity3 demand %.1f GB/s above two DDR4 channels", s)
	}
}

func TestRunStandaloneCompletes(t *testing.T) {
	tr, err := Scaled("sanity3", 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, ticks, err := RunStandaloneTicks(context.Background(), tr); err != nil || ticks == 0 {
		t.Fatalf("standalone run ticked the model %d times, err %v", ticks, err)
	}
}

func TestPatternDeterministic(t *testing.T) {
	a := pattern(64, 3)
	b := pattern(64, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("pattern not deterministic")
		}
	}
	c := pattern(64, 4)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical patterns")
	}
}
