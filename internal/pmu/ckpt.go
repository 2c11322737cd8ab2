package pmu

import (
	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/rtlobject"
)

// SaveState captures the PMU wrapper: the compiled RTL model's full state
// (cycle counter, signal values — written through rtl.Model.SaveCheckpoint,
// whose structural fingerprint guards against restoring into a different
// circuit) plus the wrapper-side glue: accumulated commit/miss events not yet
// driven onto the event wires, the queued AXI transactions and the read
// completing this cycle. It implements ckpt.Checkpointable so the enclosing
// RTLObject can delegate to it.
func (w *Wrapper) SaveState(cw *ckpt.Writer) error {
	cw.Section("pmu.wrapper")
	if err := w.model.SaveCheckpoint(cw); err != nil {
		cw.Fail(err)
		return err
	}
	cw.Int(w.pendingCommits)
	cw.Int(w.pendingMisses)
	cw.Int(len(w.axiQ))
	for i := range w.axiQ {
		rtlobject.SaveCPURequest(cw, &w.axiQ[i])
	}
	cw.Bool(w.reading)
	if w.reading {
		rtlobject.SaveCPURequest(cw, &w.inflightRead)
	}
	return cw.Err()
}

// RestoreState reinstates a checkpointed PMU. Callers must not pulse Reset or
// rewrite the enable/threshold registers afterwards: the register file,
// counters and in-flight AXI traffic all come from the checkpoint. An
// attached VCD writer is realigned by the model restore (see rtl.Resync);
// the waveform file itself restarts at the restore point.
func (w *Wrapper) RestoreState(r *ckpt.Reader) error {
	r.Section("pmu.wrapper")
	if err := w.model.RestoreCheckpoint(r); err != nil {
		r.Fail(err)
		return err
	}
	w.pendingCommits = r.Len()
	w.pendingMisses = r.Len()
	n := r.Len()
	w.axiQ = w.axiQ[:0]
	for i := 0; i < n && r.Err() == nil; i++ {
		w.axiQ = append(w.axiQ, rtlobject.LoadCPURequest(r))
	}
	if w.reading = r.Bool(); w.reading {
		w.inflightRead = rtlobject.LoadCPURequest(r)
	}
	return r.Err()
}
