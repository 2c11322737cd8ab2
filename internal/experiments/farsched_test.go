package experiments

import (
	"testing"

	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
)

// TestLoadedDRAMStaysInCalendarRing holds the calendar window to what it is
// for: on the two memory-bound shapes the ledger runs — one NVDLA on four
// DDR4 channels at full scale (nvdla-cosim) and four NVDLAs on one channel
// (dse-grid's heaviest cell) — the read completions a loaded controller
// schedules must land in the ring, leaving the spill heap to the µs-scale
// timers. With the 65 536-tick window this replaced, 8.4% and 4.8% of these
// runs' events were scheduled into the heap (PERFORMANCE.md §6). Both runs
// must also end on the ticks bench/golden.json records for them.
func TestLoadedDRAMStaysInCalendarRing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		spec   RunSpec
		golden sim.Tick // bench/golden.json, "sanity3 n=… inflight=240 scale=…"
	}{
		{"1xNVDLA DDR4-4ch scale 1", DSEParams{Scale: 1, Limit: 4 * sim.Second}.Spec("sanity3", 1, "DDR4-4ch", 240), 89946000},
		{"4xNVDLA DDR4-1ch scale 32", DSEParams{Scale: 32, Limit: 4 * sim.Second}.Spec("sanity3", 4, "DDR4-1ch", 240), 21357000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := buildPoint(tc.spec, soc.Oracles{})
			if err != nil {
				t.Fatal(err)
			}
			done, err := s.RunUntilNVDLAsDone(tc.spec.Limit)
			if err != nil {
				t.Fatal(err)
			}
			if done != tc.golden {
				t.Errorf("final tick %d, golden %d", done, tc.golden)
			}
			far, all := s.Queue.FarScheduled(), s.Queue.Dispatched()
			t.Logf("%d of %d events scheduled into the spill heap (%.3f%%), %d DRAM reads",
				far, all, 100*float64(far)/float64(all), s.DRAM.Stats().Reads)
			if far*100 >= all {
				t.Errorf("%d of %d events took the spill heap: 1%% or more, the window no longer covers a loaded DRAM round trip", far, all)
			}
		})
	}
}
