package pmu

import (
	"bytes"
	"testing"

	"gem5rtl/internal/conform"
	"gem5rtl/internal/rtl"
	"gem5rtl/internal/rtlobject"
	"gem5rtl/internal/verilog"
)

func newPMU(t testing.TB) *Wrapper {
	t.Helper()
	w, err := NewWrapper(NumCounters)
	if err != nil {
		t.Fatal(err)
	}
	w.Reset()
	return w
}

// tickN runs n idle ticks.
func tickN(w *Wrapper, n int) {
	for i := 0; i < n; i++ {
		w.Tick(&rtlobject.Input{})
	}
}

// axiWrite performs a register write and ticks once.
func axiWrite(w *Wrapper, addr uint64, val uint32) {
	in := &rtlobject.Input{CPURequests: []rtlobject.CPURequest{{
		ID: 9999, Addr: addr, Write: true,
		Data: []byte{byte(val), byte(val >> 8), byte(val >> 16), byte(val >> 24)},
	}}}
	w.Tick(in)
}

// axiRead performs a register read, ticking until the response arrives.
func axiRead(t testing.TB, w *Wrapper, addr uint64) uint32 {
	t.Helper()
	in := &rtlobject.Input{CPURequests: []rtlobject.CPURequest{{ID: 4242, Addr: addr}}}
	out := w.Tick(in)
	for i := 0; i < 4; i++ {
		for _, r := range out.CPUResponses {
			if r.ID == 4242 {
				return uint32(r.Data[0]) | uint32(r.Data[1])<<8 |
					uint32(r.Data[2])<<16 | uint32(r.Data[3])<<24
			}
		}
		out = w.Tick(&rtlobject.Input{})
	}
	t.Fatal("AXI read never completed")
	return 0
}

func TestVerilogSourceCompiles(t *testing.T) {
	if _, err := verilog.Compile(VerilogSource(NumCounters), "pmu", nil); err != nil {
		t.Fatal(err)
	}
	// Smaller configurations elaborate too.
	if _, err := verilog.Compile(VerilogSource(4), "pmu", nil); err != nil {
		t.Fatal(err)
	}
}

func TestCycleCounterCounts(t *testing.T) {
	w := newPMU(t)
	axiWrite(w, RegEnable, 1<<EvCycle)
	tickN(w, 100)
	got := axiRead(t, w, RegCounterBase+4*EvCycle)
	// ~100 cycles counted (1-cycle recording delay and the enable-write tick
	// introduce small, deterministic offsets).
	if got < 95 || got > 110 {
		t.Fatalf("cycle counter = %d, want ~100", got)
	}
}

func TestDisabledEventsNotCounted(t *testing.T) {
	w := newPMU(t)
	// No enables: commits must not count.
	w.AddCommits(50, 0)
	tickN(w, 60)
	if got := w.Counter(EvCommit0); got != 0 {
		t.Fatalf("disabled counter counted %d", got)
	}
}

func TestCommitEventLines(t *testing.T) {
	w := newPMU(t)
	axiWrite(w, RegEnable, 0xF) // commit lines 0-3
	// 10 commits: with up to 4 lines per cycle the counters must total 10.
	w.AddCommits(10, 0)
	tickN(w, 10)
	total := uint32(0)
	for i := EvCommit0; i <= EvCommit3; i++ {
		total += w.Counter(i)
	}
	if total != 10 {
		t.Fatalf("commit total = %d, want 10", total)
	}
	// Line 0 saw 3 cycles (4+4+2), line 3 only 2.
	if w.Counter(EvCommit0) != 3 || w.Counter(EvCommit3) != 2 {
		t.Fatalf("line distribution: c0=%d c3=%d", w.Counter(EvCommit0), w.Counter(EvCommit3))
	}
}

func TestMissEvents(t *testing.T) {
	w := newPMU(t)
	axiWrite(w, RegEnable, 1<<EvL1DMiss)
	for i := 0; i < 7; i++ {
		w.AddMiss(0)
	}
	tickN(w, 10)
	if got := w.Counter(EvL1DMiss); got != 7 {
		t.Fatalf("miss counter = %d, want 7", got)
	}
}

func TestCounterClearOnWrite(t *testing.T) {
	w := newPMU(t)
	axiWrite(w, RegEnable, 1<<EvCycle)
	tickN(w, 50)
	axiWrite(w, RegCounterBase+4*EvCycle, 0)
	got := axiRead(t, w, RegCounterBase+4*EvCycle)
	if got > 5 {
		t.Fatalf("counter after clear = %d", got)
	}
}

func TestThresholdInterruptAndReset(t *testing.T) {
	w := newPMU(t)
	axiWrite(w, RegEnable, 1<<EvCycle)
	axiWrite(w, RegThreshSel, EvCycle)
	axiWrite(w, RegThreshVal, 20)
	irqs := 0
	lastIrq := false
	var countsAtIrq []uint32
	for i := 0; i < 200; i++ {
		out := w.Tick(&rtlobject.Input{})
		if out.Interrupt && !lastIrq {
			irqs++
			countsAtIrq = append(countsAtIrq, w.Counter(EvCycle))
		}
		lastIrq = out.Interrupt
	}
	if irqs < 8 || irqs > 11 {
		t.Fatalf("got %d interrupts over 200 cycles with threshold 20, want ~10", irqs)
	}
	// After each interrupt the counter resets: observed values stay small.
	for _, c := range countsAtIrq {
		if c > 22 {
			t.Fatalf("counter did not reset at threshold: %d", c)
		}
	}
}

func TestEventLossDuringReset(t *testing.T) {
	// The paper's §6.1 artefact: the reset cycle loses events. Over a run
	// with threshold resets, the counted total is slightly below the true
	// event count.
	w := newPMU(t)
	axiWrite(w, RegEnable, 1<<EvCycle)
	axiWrite(w, RegThreshSel, EvCycle)
	axiWrite(w, RegThreshVal, 10)
	const cycles = 100
	resets := 0
	lastIrq := false
	for i := 0; i < cycles; i++ {
		out := w.Tick(&rtlobject.Input{})
		if out.Interrupt && !lastIrq {
			resets++
		}
		lastIrq = out.Interrupt
	}
	counted := w.Counter(EvCycle)
	// Each reset discards the event arriving that cycle; total counted plus
	// thresholds consumed must be below the cycle count.
	if int(counted)+resets*10 > cycles {
		t.Fatalf("no event loss visible: counted=%d resets=%d cycles=%d", counted, resets, cycles)
	}
	if resets == 0 {
		t.Fatal("threshold never fired")
	}
}

func TestAXIReadbackConfigRegs(t *testing.T) {
	w := newPMU(t)
	axiWrite(w, RegEnable, 0x3F)
	axiWrite(w, RegThreshVal, 12345)
	axiWrite(w, RegThreshSel, 7)
	if got := axiRead(t, w, RegEnable); got != 0x3F {
		t.Fatalf("enable readback %#x", got)
	}
	if got := axiRead(t, w, RegThreshVal); got != 12345 {
		t.Fatalf("thresh_val readback %d", got)
	}
	if got := axiRead(t, w, RegThreshSel); got != 7 {
		t.Fatalf("thresh_sel readback %d", got)
	}
}

func TestResetClearsState(t *testing.T) {
	w := newPMU(t)
	axiWrite(w, RegEnable, 1<<EvCycle)
	tickN(w, 30)
	w.Reset()
	if got := w.Counter(EvCycle); got != 0 {
		t.Fatalf("counter after reset = %d", got)
	}
	if got := axiRead(t, w, RegEnable); got != 0 {
		t.Fatalf("enable after reset = %#x", got)
	}
}

func TestUnknownAddressReads(t *testing.T) {
	w := newPMU(t)
	if got := axiRead(t, w, 0xF0); got != 0xDEADBEEF {
		t.Fatalf("unknown address read %#x", got)
	}
}

// countingSink is a waveform sink that keeps nothing but the byte count.
type countingSink struct{ n int64 }

func (c *countingSink) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// BenchmarkPMUTick times one busy cycle of the wrapper, programmed as the
// Table 2 runs program it — every event line enabled, the threshold on the
// cycle counter — with 0 to 7 commits arriving each cycle and a miss one
// cycle in eight. The waveform variant also writes the model's VCD to a sink
// that counts its bytes.
func BenchmarkPMUTick(b *testing.B) {
	for _, wave := range []bool{false, true} {
		name := "model"
		if wave {
			name = "waveform"
		}
		b.Run(name, func(b *testing.B) {
			w := newPMU(b)
			var sink countingSink
			if wave {
				w.Model().AttachVCD(&sink, 1)
			}
			axiWrite(w, RegEnable, 0x3F)
			axiWrite(w, RegThreshSel, EvCycle)
			axiWrite(w, RegThreshVal, 10000)
			in := &rtlobject.Input{}
			rng := conform.NewRNG(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := rng.Uint64()
				w.AddCommits(int(x%8), 0)
				if x>>3%8 == 0 {
					w.AddMiss(0)
				}
				w.Tick(in)
			}
			if wave {
				if err := w.Model().VCD().Flush(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(sink.n)/float64(b.N), "vcd-B/op")
			}
		})
	}
}

// TestTickAllocsPerRun holds the wrapper to the exchange contract the
// RTLObject already offers it: the Output, like the Input, is storage reused
// every cycle, so a model cycle allocates nothing — with events pending, an
// AXI write queued behind an AXI read, and the read's response going out.
func TestTickAllocsPerRun(t *testing.T) {
	for _, engine := range []rtl.Engine{rtl.EngineReference, rtl.EngineBytecode} {
		w, err := NewWrapperEngine(NumCounters, engine)
		if err != nil {
			t.Fatal(err)
		}
		w.Reset()
		axiWrite(w, RegEnable, 0x3F)
		in := &rtlobject.Input{}
		reqs := []rtlobject.CPURequest{
			{ID: 1, Addr: RegCounterBase + 4*EvCycle},
			{ID: 2, Addr: RegThreshVal, Write: true, Data: []byte{0, 1, 0, 0}},
		}
		responses := 0
		allocs := testing.AllocsPerRun(200, func() {
			w.AddCommits(3, 0)
			w.AddMiss(0)
			in.CPURequests = reqs
			responses += len(w.Tick(in).CPUResponses)
			in.CPURequests = nil
			responses += len(w.Tick(in).CPUResponses)
		})
		if allocs != 0 {
			t.Errorf("engine %s: Tick allocates %.1f times per two cycles, want 0", engine, allocs)
		}
		if responses == 0 {
			t.Errorf("engine %s: no AXI response seen", engine)
		}
	}
}

// TestTapsFoldIntoASleep holds the fold to ticking: a wrapper that is
// asleep takes commits and misses at random cycles of a stretch and applies
// them with Advance; a twin ticks every cycle and takes each in the cycle it
// arrives in. Both models, and the events still pending, must agree at the
// end of every stretch — including events that arrive on the stretch's last
// edge, which the next tick drives. The second run writes both waveforms,
// which must agree byte for byte at the end of every stretch: bursts long
// enough to fill the log (maxLogRuns) apply part of a stretch before its
// end.
func TestTapsFoldIntoASleep(t *testing.T) {
	for _, wave := range []bool{false, true} {
		checkTapsFold(t, wave)
	}
}

func checkTapsFold(t *testing.T, wave bool) {
	nap, tick := newPMU(t), newPMU(t)
	var vcd [2]bytes.Buffer
	if wave {
		nap.Model().AttachVCD(&vcd[0], 1)
		tick.Model().AttachVCD(&vcd[1], 1)
	}
	for _, w := range []*Wrapper{nap, tick} {
		axiWrite(w, RegEnable, 0x3F)
		axiWrite(w, RegThreshSel, EvCycle)
		axiWrite(w, RegThreshVal, 3000)
		tickN(w, 1)
	}
	rng := uint64(0x2545f4914f6cdd1d)
	rand := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	type arrival struct {
		edge, commits uint64 // commits 0: a miss
	}
	stretches, longs := 0, 0
	for cycles := 0; cycles < 20000; {
		k, _ := nap.Quiet()
		if k == 0 {
			nap.Tick(&rtlobject.Input{})
			tick.Tick(&rtlobject.Input{})
			cycles++
			continue
		}
		// A burst, a trickle, or nothing: arrivals in edge order. One
		// stretch in eight that can be is a long burst, an arrival every few
		// cycles, which fills the log before its end.
		n, dense := 1+rand(min(k, 400)), rand(3)
		long := stretches%8 == 7 && k >= 3*maxLogRuns
		if long {
			n, dense = 3*maxLogRuns, 8
		}
		var arr []arrival
		for e := uint64(0); e <= n && dense > 0; e += 1 + rand(8/dense*4) {
			arr = append(arr, arrival{e, rand(9)})
		}
		i := 0
		for e := uint64(0); e <= n; e++ {
			for ; i < len(arr) && arr[i].edge == e; i++ {
				if c := arr[i].commits; c > 0 {
					nap.AddCommits(int(c), e)
					tick.AddCommits(int(c), 0)
				} else {
					nap.AddMiss(e)
					tick.AddMiss(0)
				}
			}
			if e < n {
				tick.Tick(&rtlobject.Input{})
			}
		}
		if long {
			if nap.done == 0 {
				t.Fatalf("stretch %d: a %d-cycle burst did not fill the log", stretches, n)
			}
			longs++
		}
		nap.Advance(n, nil)
		stretches++
		cycles += int(n)
		c := nap.Model().Circuit()
		for id, sg := range c.Signals {
			if a, b := nap.Model().PeekID(rtl.SigID(id)), tick.Model().PeekID(rtl.SigID(id)); a != b {
				t.Fatalf("stretch %d (%d cycles): %s = %#x, ticking %#x", stretches, n, sg.Name, a, b)
			}
		}
		if nap.pendingCommits != tick.pendingCommits || nap.pendingMisses != tick.pendingMisses {
			t.Fatalf("stretch %d: pending %d/%d, ticking %d/%d", stretches,
				nap.pendingCommits, nap.pendingMisses, tick.pendingCommits, tick.pendingMisses)
		}
		if wave {
			for _, w := range []*Wrapper{nap, tick} {
				if err := w.Model().VCD().Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(vcd[0].Bytes(), vcd[1].Bytes()) {
				t.Fatalf("stretch %d (%d cycles): %d VCD bytes, ticking %d, not the same", stretches, n, vcd[0].Len(), vcd[1].Len())
			}
		}
		nap.Tick(&rtlobject.Input{})
		tick.Tick(&rtlobject.Input{})
		cycles++
	}
	t.Logf("waveform %v: %d stretches, %d of them long bursts", wave, stretches, longs)
	if stretches < 50 || longs < 2 {
		t.Fatalf("waveform %v: only %d stretches, %d long bursts", wave, stretches, longs)
	}
}
