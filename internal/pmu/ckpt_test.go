package pmu

import (
	"bytes"
	"testing"

	"gem5rtl/internal/conform"
	"gem5rtl/internal/rtlobject"
)

// TestPMURoundTrip checkpoints a PMU mid-measurement — counters running,
// events pending, an AXI read in flight — restores into a fresh wrapper and
// checks both continue identically.
func TestPMURoundTrip(t *testing.T) {
	w := newPMU(t)
	axiWrite(w, RegEnable, 0x3F)
	w.AddCommits(7, 0) // more than one cycle can drain
	w.AddMiss(0)
	tickN(w, 3)
	// Issue a read plus a write: one AXI transaction per cycle, so the write
	// is still queued in the wrapper when we checkpoint.
	w.Tick(&rtlobject.Input{CPURequests: []rtlobject.CPURequest{
		{ID: 11, Addr: RegCounterBase + 4*EvCycle},
		{ID: 12, Addr: RegThreshVal, Write: true, Data: []byte{50, 0, 0, 0}},
	}})
	if len(w.axiQ) != 1 {
		t.Fatalf("setup: queued=%d", len(w.axiQ))
	}

	blob := conform.Save(t, w)
	w2 := newPMU(t)
	conform.Restore(t, blob, w2)
	if got := conform.Save(t, w2); !bytes.Equal(got, blob) {
		t.Error("re-saved state differs from original checkpoint")
	}
	if w2.pendingCommits != w.pendingCommits || len(w2.axiQ) != 1 {
		t.Fatal("wrapper glue state lost")
	}

	// Continue both: same responses, same counters.
	for i := 0; i < 5; i++ {
		a := w.Tick(&rtlobject.Input{})
		b := w2.Tick(&rtlobject.Input{})
		if len(a.CPUResponses) != len(b.CPUResponses) {
			t.Fatalf("tick %d: responses diverge (%d vs %d)", i, len(a.CPUResponses), len(b.CPUResponses))
		}
		for j := range a.CPUResponses {
			if a.CPUResponses[j].ID != b.CPUResponses[j].ID ||
				!bytes.Equal(a.CPUResponses[j].Data, b.CPUResponses[j].Data) {
				t.Fatalf("tick %d: response %d diverges", i, j)
			}
		}
	}
	for i := 0; i < NumCounters; i++ {
		if w.Counter(i) != w2.Counter(i) {
			t.Errorf("counter %d diverges: %d vs %d", i, w.Counter(i), w2.Counter(i))
		}
	}
}

// TestPMUCheckpointWrongCircuit ensures the RTL fingerprint refuses a
// checkpoint from a differently-shaped PMU.
func TestPMUCheckpointWrongCircuit(t *testing.T) {
	w := newPMU(t)
	blob := conform.Save(t, w)
	other, err := NewWrapper(NumCounters / 2)
	if err != nil {
		t.Fatal(err)
	}
	other.Reset()
	if err := conform.Load(blob, other); err == nil {
		t.Fatal("cross-circuit restore not refused")
	}
}
