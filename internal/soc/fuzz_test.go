package soc_test

import (
	"bytes"
	"testing"

	"gem5rtl/internal/sim"
	"gem5rtl/internal/workload"
)

// FuzzSystemRestore hands System.Restore mutated checkpoint streams of three
// small real machines, without the file trailer that would refuse them
// first: a stream read from anywhere else has none. Restore must return,
// with a machine or an error, and never panic.
func FuzzSystemRestore(f *testing.F) {
	points := []cliPoint{
		{program: workload.SortBenchmark(workload.SortParams{N: 40, SleepUs: 100}), pmu: true, at: 100 * sim.Microsecond},
		{program: defaultSort, nvdlas: 2, at: sim.Microsecond},
		{program: defaultSort, nvdlas: 2, scratchpad: true, at: 2 * sim.Microsecond},
	}
	for i, p := range points {
		var buf bytes.Buffer
		if err := p.run(f).Save(&buf); err != nil {
			f.Fatal(err)
		}
		if _, err := p.build().Restore(bytes.NewReader(buf.Bytes())); err != nil {
			f.Fatalf("seed %d does not restore: %v", i, err)
		}
		f.Add(uint8(i), buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		p := points[int(which)%len(points)]
		_, _ = p.build().Restore(bytes.NewReader(data))
	})
}
