package pmu

import (
	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/rtlobject"
)

// Checkpoint saves or restores the PMU wrapper: the compiled RTL model's full
// state (cycle counter, signal values — through rtl.Model.Checkpoint, whose
// structural fingerprint guards against restoring into a different circuit)
// plus the wrapper-side glue: accumulated commit/miss events not yet driven
// onto the event wires, the queued AXI transactions and the read completing
// this cycle. It implements ckpt.Checkpointable so the enclosing RTLObject
// can delegate to it. After a restore callers must not pulse Reset or
// rewrite the enable/threshold registers: the register file, counters and
// in-flight AXI traffic all come from the checkpoint. An attached VCD
// writer is realigned by the model restore (see rtl.Resync); the waveform
// file itself restarts at the restore point.
func (w *Wrapper) Checkpoint(cs *ckpt.Stream) error {
	cs.Section("pmu.wrapper")
	if err := w.model.Checkpoint(cs); err != nil {
		return err
	}
	cs.Len(&w.pendingCommits)
	cs.Len(&w.pendingMisses)
	if cs.Restoring() {
		w.settled()
	}
	ckpt.Slice(cs, &w.axiQ, rtlobject.CheckpointCPURequest)
	cs.Bool(&w.reading)
	if w.reading {
		rtlobject.CheckpointCPURequest(cs, &w.inflightRead)
	}
	return cs.Err()
}
