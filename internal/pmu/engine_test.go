package pmu

import (
	"bytes"
	"math/rand"
	"testing"

	"gem5rtl/internal/rtl"
	"gem5rtl/internal/rtlobject"
)

// TestEngineEquivalence drives the PMU on the reference evaluator and on the
// bytecode VM with an identical stimulus — event bursts, AXI configuration
// traffic, threshold interrupts, counter-clearing reads and writes — and
// requires bit-identical wrapper outputs, RTL state, counters and VCD
// waveforms every cycle. This is the integration-level form of the rtlc differential tests:
// real generated Verilog through the full toolflow on both evaluators.
func TestEngineEquivalence(t *testing.T) {
	wr, err := NewWrapperEngine(NumCounters, rtl.EngineReference)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := NewWrapperEngine(NumCounters, rtl.EngineBytecode)
	if err != nil {
		t.Fatal(err)
	}
	var vcdR, vcdB bytes.Buffer
	wr.Model().AttachVCD(&vcdR, 1)
	wb.Model().AttachVCD(&vcdB, 1)
	wr.Reset()
	wb.Reset()

	sigs := wr.Model().Circuit().Signals
	compare := func(cycle int) {
		t.Helper()
		for i := range sigs {
			if gr, gb := wr.Model().PeekID(rtl.SigID(i)), wb.Model().PeekID(rtl.SigID(i)); gr != gb {
				t.Fatalf("cycle %d: signal %q: reference %#x bytecode %#x", cycle, sigs[i].Name, gr, gb)
			}
		}
	}
	write := func(addr uint64, val uint32) *rtlobject.Input {
		return &rtlobject.Input{CPURequests: []rtlobject.CPURequest{{
			ID: 1, Addr: addr, Write: true,
			Data: []byte{byte(val), byte(val >> 8), byte(val >> 16), byte(val >> 24)},
		}}}
	}
	rng := rand.New(rand.NewSource(21))
	for cycle := 0; cycle < 400; cycle++ {
		var in *rtlobject.Input
		switch cycle {
		case 0:
			in = write(RegEnable, 0x3f) // enable all event lines
		case 5:
			in = write(RegThreshVal, 40)
		case 6:
			in = write(RegThreshSel, EvCommit0)
		case 200:
			in = write(RegCounterBase+4*EvL1DMiss, 0) // write-clear
		default:
			if cycle%17 == 9 {
				in = &rtlobject.Input{CPURequests: []rtlobject.CPURequest{{
					ID: uint64(cycle), Addr: RegCounterBase + 4*uint64(rng.Intn(NumCounters)),
				}}}
			} else {
				in = &rtlobject.Input{}
			}
		}
		if n := rng.Intn(7); n > 0 {
			wr.AddCommits(n, 0)
			wb.AddCommits(n, 0)
		}
		if rng.Intn(3) == 0 {
			wr.AddMiss(0)
			wb.AddMiss(0)
		}
		or := wr.Tick(in)
		ob := wb.Tick(in)
		if or.Interrupt != ob.Interrupt {
			t.Fatalf("cycle %d: IRQ: reference %v bytecode %v", cycle, or.Interrupt, ob.Interrupt)
		}
		if len(or.CPUResponses) != len(ob.CPUResponses) {
			t.Fatalf("cycle %d: response count: reference %d bytecode %d",
				cycle, len(or.CPUResponses), len(ob.CPUResponses))
		}
		for i := range or.CPUResponses {
			if or.CPUResponses[i].ID != ob.CPUResponses[i].ID ||
				!bytes.Equal(or.CPUResponses[i].Data, ob.CPUResponses[i].Data) {
				t.Fatalf("cycle %d: response %d differs", cycle, i)
			}
		}
		compare(cycle)
	}
	for i := 0; i < NumCounters; i++ {
		if wr.Counter(i) != wb.Counter(i) {
			t.Fatalf("counter %d: reference %d bytecode %d", i, wr.Counter(i), wb.Counter(i))
		}
	}
	if !bytes.Equal(vcdR.Bytes(), vcdB.Bytes()) {
		t.Fatalf("VCD waveforms differ between engines (%d vs %d bytes)", vcdR.Len(), vcdB.Len())
	}
}
