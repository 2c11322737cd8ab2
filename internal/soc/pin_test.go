package soc_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"gem5rtl/internal/conform"
	"gem5rtl/internal/experiments"
	"gem5rtl/internal/pmu"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/trace"
	"gem5rtl/internal/workload"
)

// cliPoint is a machine the gem5rtl runner builds: one core on DDR4-1ch
// running program, with the PMU enabled over AXI (-pmu), with nvdlas
// accelerators (sanity3 at scale 64, -inflight 32; without accelerators the
// runner's default 64) and, with scratchpad, their SRAM scratchpads; latency
// attaches the packet-latency taps (-lat-hist). run runs it to at as
// -checkpoint-at does, so its Save stream is the file's minus the trailer.
type cliPoint struct {
	program    string
	pmu        bool
	nvdlas     int
	scratchpad bool
	latency    bool
	at         sim.Tick
}

// build returns the point's freshly built machine, as a restore needs it.
func (p cliPoint) build() *soc.System {
	cfg := soc.DefaultConfig()
	cfg.Cores = 1
	cfg.Memory = "DDR4-1ch"
	cfg.WithPMU = p.pmu
	cfg.NVDLAs = p.nvdlas
	cfg.NVDLAMaxInflight = 64
	if p.nvdlas > 0 {
		cfg.NVDLAMaxInflight = 32
	}
	cfg.NVDLAScratchpad = p.scratchpad
	s := soc.MustBuild(cfg)
	if p.latency {
		s.AttachLatencyProfile(nil)
	}
	return s
}

func (p cliPoint) run(t testing.TB) *soc.System {
	t.Helper()
	s := p.build()
	if p.pmu {
		s.PMU.Start()
		host := experiments.NewAXIHost(s.Queue)
		s.Bind(host.Port(), s.PMU.CPUPort(0))
		host.Write(pmu.RegEnable, 0x3F)
	}
	if err := s.LoadProgram(0, p.program); err != nil {
		t.Fatal(err)
	}
	s.StartCores(0)
	for i := 0; i < p.nvdlas; i++ {
		s.NVDLAs[i].Start()
		tr, err := trace.Scaled("sanity3", uint64(i+1)<<32, 64)
		if err != nil {
			t.Fatal(err)
		}
		s.PlayTrace(i, tr)
	}
	if p.nvdlas > 0 {
		if _, _, err := s.RunNVDLAPhase(context.Background(), p.at); err != nil {
			t.Fatal(err)
		}
	} else {
		s.Queue.RunUntil(p.at)
	}
	return s
}

// defaultSort is the runner's default program (-program sort -n 200).
var defaultSort = workload.SortBenchmark(workload.SortParams{N: 200, SleepUs: 100})

// TestCheckpointBytesPinned holds the Save streams of the CI save/restore
// points no other pin covers to their SHA-256 and state digest: two
// accelerators with scratchpads split mid-DMA, the same point with latency
// taps (the only stream with an obs section), and a store stream whose
// checkpoint holds writebacks and MSHR targets under eviction. A different
// hash means the bytes moved, not that the constant needs refreshing.
func TestCheckpointBytesPinned(t *testing.T) {
	for _, p := range []struct {
		name      string
		point     cliPoint
		sha256    string
		stateHash uint64
	}{
		{
			name:      "nvdla=2 scratchpad @2us",
			point:     cliPoint{program: defaultSort, nvdlas: 2, scratchpad: true, at: 2 * sim.Microsecond},
			sha256:    "3a70da109abdff151b32513232db0953e4f6e20c8d259dfc3191bdf426dfc026",
			stateHash: 0xca09f5892336a172,
		},
		{
			name:      "nvdla=2 scratchpad lat-hist @2us",
			point:     cliPoint{program: defaultSort, nvdlas: 2, scratchpad: true, latency: true, at: 2 * sim.Microsecond},
			sha256:    "6eab4dc4464fef7e03840ad95ae912c13b4a3d7d1642862c3d70df6b7d9467d9",
			stateHash: 0x1f840f3836c319f3,
		},
		{
			name:      "stream n=100000 @300us",
			point:     cliPoint{program: workload.MemoryStream(0x400000, 100000), at: 300 * sim.Microsecond},
			sha256:    "7fcc0f37d48cd79cf168846147e5b5602a7ada34a0806c8ea1d7758158bfb1d1",
			stateHash: 0x226e0c84234d74d4,
		},
	} {
		t.Run(p.name, func(t *testing.T) {
			s := p.point.run(t)
			var buf bytes.Buffer
			if err := s.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != p.sha256 {
				t.Errorf("sha256 = %s, pinned %s", got, p.sha256)
			}
			if got := conform.Digest(t, s); got != p.stateHash {
				t.Errorf("state digest = %#x, pinned %#x", got, p.stateHash)
			}
		})
	}
}
