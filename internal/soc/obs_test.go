package soc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gem5rtl/internal/cpu"
	"gem5rtl/internal/experiments"
	"gem5rtl/internal/guard"
	"gem5rtl/internal/obs"
	"gem5rtl/internal/pmu"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestAttachTracerRejectsUnknownFlag(t *testing.T) {
	t.Parallel()
	cfg := soc.DefaultConfig()
	cfg.Cores = 1
	s := soc.MustBuild(cfg)
	if _, err := s.AttachTracer(obs.Config{Flags: "Cache,Typo"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// pmuTraceSystem reproduces the gem5rtl -cores 1 -pmu -program sort setup.
func pmuTraceSystem(t testing.TB) *soc.System {
	t.Helper()
	cfg := soc.DefaultConfig()
	cfg.Cores = 1
	cfg.Memory = "DDR4-1ch"
	cfg.WithPMU = true
	s := soc.MustBuild(cfg)
	return s
}

func startPMUSort(t testing.TB, s *soc.System) {
	t.Helper()
	s.PMU.Start()
	host := experiments.NewAXIHost(s.Queue)
	port.Bind(host.Port(), s.PMU.CPUPort(0))
	host.Write(pmu.RegEnable, 0x3F)
	src := workload.SortBenchmark(workload.SortParams{N: 40, SleepUs: 100})
	if err := s.LoadProgram(0, src); err != nil {
		t.Fatal(err)
	}
	s.StartCores(0)
}

// TestTraceGoldenPMUFirst1000Ticks pins the exact trace a -debug-flags=all
// PMU run emits in its first 1000 ticks against a committed golden file.
// The simulation is deterministic, so any drift here is a real behaviour or
// format change. Regenerate with -update (make goldens).
func TestTraceGoldenPMUFirst1000Ticks(t *testing.T) {
	t.Parallel()
	s := pmuTraceSystem(t)
	var buf bytes.Buffer
	if _, err := s.AttachTracer(obs.Config{Flags: "all", Out: &buf, End: 1000}); err != nil {
		t.Fatal(err)
	}
	startPMUSort(t, s)
	s.Queue.RunUntil(5000) // well past the window; End clips at tick 1000

	golden := filepath.Join("testdata", "trace_pmu_first1000.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace drifted from golden.\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

// TestTracingIsTransparent: an all-flags tracer (with port taps interposed)
// must not perturb the simulation — final tick, event count, state hash and
// every statistic match an untraced run exactly.
func TestTracingIsTransparent(t *testing.T) {
	t.Parallel()
	plain := pmuTraceSystem(t)
	startPMUSort(t, plain)
	plain.Queue.RunUntil(100 * sim.Microsecond)
	plainDigest := runDigest(t, plain)

	traced := pmuTraceSystem(t)
	var sinkBuf bytes.Buffer
	if _, err := traced.AttachTracer(obs.Config{Flags: "all", Out: &sinkBuf}); err != nil {
		t.Fatal(err)
	}
	startPMUSort(t, traced)
	traced.Queue.RunUntil(100 * sim.Microsecond)
	if got := runDigest(t, traced); got != plainDigest {
		t.Errorf("tracing perturbed the run:\n--- plain ---\n%s--- traced ---\n%s", plainDigest, got)
	}
	if sinkBuf.Len() == 0 {
		t.Fatal("all-flags trace emitted nothing")
	}
}

// TestLatencyProfileCheckpointEquivalence extends the headline
// restore-equivalence property to runs with a latency profile attached:
// histograms and in-flight packet stamps travel in the checkpoint, the split
// run's digest (whose state hash covers the obs.latency section) matches the
// uninterrupted run bit-for-bit, and packets straddling the checkpoint
// produce sane (non-wrapped) latencies.
func TestLatencyProfileCheckpointEquivalence(t *testing.T) {
	t.Parallel()
	const limit = 8 * sim.Second
	ctx := context.Background()

	cold := nvdlaSystem(t, "DDR4-1ch", "sanity3")
	cold.AttachLatencyProfile(nil)
	coldDone, err := cold.RunUntilNVDLAsDone(limit)
	if err != nil {
		t.Fatal(err)
	}
	coldDigest := runDigest(t, cold)

	split := nvdlaSystem(t, "DDR4-1ch", "sanity3")
	split.AttachLatencyProfile(nil)
	if _, _, err := split.RunNVDLAPhase(ctx, coldDone/2); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := split.Save(&snap); err != nil {
		t.Fatal(err)
	}

	warm := soc.MustBuild(split.Cfg)
	warm.AttachLatencyProfile(nil)
	if _, err := warm.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	warmDone, remaining, err := warm.RunNVDLAPhase(ctx, limit)
	if err != nil {
		t.Fatal(err)
	}
	if remaining != 0 || warmDone != coldDone {
		t.Fatalf("restored run diverged: done=%d remaining=%d, want done=%d", warmDone, remaining, coldDone)
	}
	if got := runDigest(t, warm); got != coldDigest {
		t.Errorf("digest diverges with latency profile attached:\n--- cold ---\n%s--- warm ---\n%s", coldDigest, got)
	}
	sampled := false
	for _, tap := range warm.Latency.Taps() {
		h := tap.Hist()
		if h.Count() > 0 {
			sampled = true
		}
		// A packet straddling the checkpoint whose stamp were lost or
		// re-zeroed would register a wrapped/absurd latency.
		if h.Max() > uint64(coldDone) {
			t.Errorf("tap %s max latency %d exceeds run length %d", tap.Name(), h.Max(), coldDone)
		}
	}
	if !sampled {
		t.Fatal("no tap recorded any latency sample")
	}
}

// TestLatencyProfileMissingOnRestore: a checkpoint written with a profile
// refuses to restore into a system without one (the stream has the
// obs.latency section where soc.end is expected).
func TestLatencyProfileMissingOnRestore(t *testing.T) {
	t.Parallel()
	s := nvdlaSystem(t, "ideal", "sanity3")
	s.AttachLatencyProfile(nil)
	if _, _, err := s.RunNVDLAPhase(context.Background(), 10*sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	bare := soc.MustBuild(s.Cfg)
	if _, err := bare.Restore(bytes.NewReader(snap.Bytes())); err == nil {
		t.Fatal("profile-bearing checkpoint restored into a bare system")
	}
}

// dropResponses swallows memory responses to wedge the accelerator.
type dropResponses struct{}

func (dropResponses) TapReq(*port.Packet) port.TapAction  { return port.TapPass }
func (dropResponses) TapResp(*port.Packet) port.TapAction { return port.TapDrop }

// TestWatchdogDiagnosticIncludesTraceTail: with a tracer attached, a hang
// diagnostic carries the tripped components' recent trace lines.
func TestWatchdogDiagnosticIncludesTraceTail(t *testing.T) {
	t.Parallel()
	s := nvdlaSystem(t, "ideal", "sanity3")
	if _, err := s.AttachTracer(obs.Config{Flags: "NVDLA,RTL"}); err != nil {
		t.Fatal(err)
	}
	s.AttachWatchdog(guard.Config{})
	port.Interpose(s.NVDLAs[0].MemPort(0), dropResponses{})
	_, _, err := s.RunNVDLAPhase(context.Background(), sim.Second)
	if err == nil {
		t.Fatal("lost responses did not trip the watchdog")
	}
	if !guard.IsHang(err) {
		t.Fatalf("err is %T (%v), want a HangError", err, err)
	}
	if !strings.Contains(err.Error(), "\n    | ") {
		t.Fatalf("diagnostic has no trace tail:\n%s", err.Error())
	}
}

// TestIntervalRatiosStayInRange: the interval dumper writes a ratio over an
// interval as the ratio of its totals' changes, not as the change of the
// ratio. On the Table 2 sort over one DRAM channel, whose core sleeps, every
// interval's ipc lies in [0, IssueWidth] and its rowHitRate in [0, 1], and
// an interval the core slept through reads 0 instructions per cycle.
func TestIntervalRatiosStayInRange(t *testing.T) {
	cfg := soc.DefaultConfig()
	cfg.Cores, cfg.WithPMU, cfg.Memory = 1, true, "DDR4-1ch"
	s, err := soc.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	host := experiments.NewAXIHost(s.Queue)
	port.Bind(host.Port(), s.PMU.CPUPort(0))
	s.PMU.Start()
	host.Write(pmu.RegEnable, 0x3F)
	if err := s.LoadProgram(0, workload.SortBenchmark(workload.SortParams{N: 40, SleepUs: 30})); err != nil {
		t.Fatal(err)
	}
	s.Cores[0].OnExit = func(int64) { s.Queue.ExitSimLoop("exit") }
	var buf bytes.Buffer
	d, err := obs.NewIntervalDumper(s.Queue, s.Stats, &buf, 10*sim.Microsecond, "jsonl")
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	s.StartCores(0)
	s.Queue.RunUntil(sim.MaxTick)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	width := float64(cpu.DefaultConfig(0).IssueWidth)
	asleep := 0
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec obs.IntervalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		ipc, hit := rec.Stats["system.cpu0.ipc"], rec.Stats["system.mem.rowHitRate"]
		if ipc < 0 || ipc > width {
			t.Errorf("interval %d: ipc %g outside [0, %g]", i, ipc, width)
		}
		if hit < 0 || hit > 1 {
			t.Errorf("interval %d: rowHitRate %g outside [0, 1]", i, hit)
		}
		if rec.Stats["system.cpu0.numCycles"] == 0 {
			asleep++
			if ipc != 0 {
				t.Errorf("interval %d: the core slept through it, and ipc reads %g", i, ipc)
			}
		}
	}
	if asleep == 0 {
		t.Errorf("no interval the core slept through")
	}
}
