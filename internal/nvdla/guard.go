package nvdla

import "fmt"

// The liveness-probe methods below implement guard.Probe (structurally): the
// watchdog waits on the wrapper's internal load/store bookkeeping, which
// covers faults the RTLObject's tables cannot see (e.g. a response that
// retired at the bridge but never reached the model).

// GuardName identifies the accelerator model in watchdog diagnostics.
func (w *Wrapper) GuardName() string { return w.cfg.Name + ".model" }

// InFlight reports reads the model is waiting on plus pending and
// outstanding output writes.
func (w *Wrapper) InFlight() int {
	return w.reads.n + len(w.pendWrites) + w.writesOut
}

// GuardDetail renders the model's execution position.
func (w *Wrapper) GuardDetail() string {
	return fmt.Sprintf("reads-waited=%d pendWrites=%d writesOut=%d layer=%d/%d computeTile=%d/%d",
		w.reads.n, len(w.pendWrites), w.writesOut,
		w.layerIdx, len(w.layers), w.computeTile, len(w.tiles))
}
