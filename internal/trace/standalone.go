package trace

import (
	"context"
	"time"

	"gem5rtl/internal/nvdla"
	"gem5rtl/internal/rtlobject"
)

// standaloneCtxCheckEvery bounds how many accelerator cycles run between
// context checks in the standalone tick loop. Checking every 4096 cycles
// keeps cancellation latency in the microsecond range at a negligible cost.
const standaloneCtxCheckEvery = 4096

// RunStandaloneCtx executes a trace against a bare accelerator wrapper with
// a zero-latency memory loop — the equivalent of the paper's standalone
// Verilator simulation using NVIDIA's bundled nvdla.cpp testbench, which
// "reads the trace directly" with no SoC, no trace-into-memory load phase
// and no timing model around it. It returns the host wall-clock time, the
// Table 3 normalisation baseline. Cancelling ctx aborts the tick loop and
// returns ctx.Err().
func RunStandaloneCtx(ctx context.Context, t *Trace) (time.Duration, error) {
	d, _, err := RunStandaloneTicks(ctx, t)
	return d, err
}

// RunStandaloneTicks is RunStandaloneCtx that also returns how many cycles
// the model was ticked: the run's work in units that do not depend on the
// host.
func RunStandaloneTicks(ctx context.Context, t *Trace) (time.Duration, uint64, error) {
	dla := nvdla.New(nvdla.DefaultConfig("standalone"))
	start := time.Now()
	for _, op := range t.Ops {
		switch op.Kind {
		case OpWriteReg:
			dla.WriteReg(op.Addr, op.Val)
		case OpStart:
			dla.WriteReg(nvdla.RegCtrl, 1)
		case OpLoadMem:
			// The standalone testbench serves reads straight from the trace
			// file; there is nothing to preload.
		}
	}
	in := &rtlobject.Input{}
	var cycle uint64
	for ; !dla.Done(); cycle++ {
		if cycle%standaloneCtxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return time.Since(start), cycle, err
			}
		}
		out := dla.Tick(in)
		in = &rtlobject.Input{}
		for _, req := range out.MemRequests {
			resp := rtlobject.MemResponse{ID: req.ID, Write: req.Write}
			if !req.Write {
				resp.Data = make([]byte, req.Size)
			}
			in.MemResponses = append(in.MemResponses, resp)
		}
	}
	return time.Since(start), cycle, nil
}
