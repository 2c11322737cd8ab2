package rtl

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"gem5rtl/internal/conform"
)

// TestVCDResyncAfterRestore checks that restoring a checkpoint into a model
// with an attached VCD writer realigns the writer: the post-restore waveform
// must contain the same change records as the uninterrupted run's.
func TestVCDResyncAfterRestore(t *testing.T) {
	a := buildCounter(t)
	var aOut bytes.Buffer
	av := a.AttachVCD(&aOut, 1)
	a.SetInput("en", 1)
	for i := 0; i < 5; i++ {
		a.Tick()
	}
	snap := conform.Save(t, a)
	if err := av.Flush(); err != nil {
		t.Fatal(err)
	}
	aMark := aOut.Len()

	b := buildCounter(t)
	var bOut bytes.Buffer
	bv := b.AttachVCD(&bOut, 1)
	if err := conform.Load(snap, b); err != nil {
		t.Fatal(err)
	}
	if err := bv.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bOut.String(), "#5\n") {
		t.Fatal("restore did not emit a resync dump at the restored cycle")
	}
	bMark := bOut.Len()

	// Continue both runs; the per-cycle deltas must be identical text.
	b.SetInput("en", 1)
	for i := 0; i < 5; i++ {
		a.Tick()
		b.Tick()
	}
	if err := av.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bv.Flush(); err != nil {
		t.Fatal(err)
	}
	aTail := aOut.String()[aMark:]
	bTail := bOut.String()[bMark:]
	if aTail != bTail {
		t.Errorf("post-restore waveform diverges:\n got %q\nwant %q", bTail, aTail)
	}
}

// TestVCDDumpAllocsPerRun pins the waveform writer's formatting path: a
// dump — timestamp plus scalar and vector value records — goes through one
// reused buffer and allocates nothing.
func TestVCDDumpAllocsPerRun(t *testing.T) {
	m := buildCounter(t)
	v := m.AttachVCD(io.Discard, 1)
	m.SetInput("en", 1)
	before := v.Changes()
	if allocs := testing.AllocsPerRun(200, m.Tick); allocs != 0 {
		t.Fatalf("a traced Tick allocates %.1f times, want 0", allocs)
	}
	if v.Changes() == before {
		t.Fatal("no value record written")
	}
}
