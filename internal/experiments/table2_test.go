package experiments

import (
	"crypto/sha256"
	"fmt"
	"io"
	"testing"

	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/workload"
)

// table2Sort is one Table 2 cell's sort run at size n, its waveform (if the
// cell writes one) going to wave.
func table2Sort(c Table2Config, n int, wave io.Writer) sortRun {
	sp := sortRun{SortParams: workload.SortParams{N: n, SleepUs: 100}, PMU: c.PMU, Interval: 10000}
	if c.Waveform {
		sp.Waveform, sp.WaveOut = true, wave
	}
	return sp
}

// TestTable2SteadyStateAllocatesNothing: a Table 2 run allocates only while
// it sets up. Past its warm-up every packet, sender-state tag, event and
// request record the sort needs is recycled, so windows of simulated time in
// the middle of the run (short of the exit, which allocates) allocate
// nothing in any of the three cells. The systems bind unchecked: a port
// protocol checker records every packet it sees.
func TestTable2SteadyStateAllocatesNothing(t *testing.T) {
	// Not parallel: AllocsPerRun counts every goroutine's allocations.
	for _, c := range Table2Configs() {
		var sink countingWriter
		err := Runner{oracles: soc.Oracles{Ports: port.CheckOff}}.runSort(table2Sort(c, 200, &sink), func(s *sortSystem) error {
			at := 300 * sim.Microsecond
			s.Queue.RunUntil(at)
			for _, w := range []sim.Tick{sim.Microsecond, 10 * sim.Microsecond} {
				allocs := testing.AllocsPerRun(5, func() {
					at += w
					s.Queue.RunUntil(at)
				})
				if allocs != 0 {
					t.Errorf("%s: %.1f allocations per %d ps window, want 0", c.Name, allocs, w)
				}
			}
			if s.exited {
				t.Errorf("%s: the sort exited inside the windows", c.Name)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if c.Waveform && sink.n == 0 {
			t.Errorf("%s: no waveform was written", c.Name)
		}
	}
}

// TestTable2WaveformPinned holds the whole VCD of the Table 2
// gem5+PMU+waveform cell at n = 60 to a pinned SHA-256, so a change to the
// waveform writer or to what the PMU computes shows as a different digest.
func TestTable2WaveformPinned(t *testing.T) {
	const (
		wantBytes = 17710332
		wantSHA   = "a91c4dcf760b30a983d8753e35b6e9361618f3e6c250ee8b92ee4c74cac3651b"
	)
	cfg := Table2Configs()[2]
	h := sha256.New()
	var n countingWriter
	err := Runner{}.runSort(table2Sort(cfg, 60, io.MultiWriter(h, &n)), func(s *sortSystem) error {
		s.Queue.RunUntil(sim.MaxTick)
		if !s.exited {
			return fmt.Errorf("sort benchmark did not finish")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); n.n != wantBytes || got != wantSHA {
		t.Errorf("%s VCD: %d bytes, sha256 %s; pinned %d bytes, %s", cfg.Name, n.n, got, wantBytes, wantSHA)
	}
}
