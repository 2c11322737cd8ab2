package noc

import (
	"fmt"

	"gem5rtl/internal/ckpt"
)

// frontState rides in-flight packets' sender-state stacks, so it must
// checkpoint with them.
func (s *frontState) SenderStateKind() uint8 { return ckpt.XbarFrontState }

// Checkpoint saves or restores the originating front-port index.
func (s *frontState) Checkpoint(cs *ckpt.Stream) { cs.Int(&s.front) }

func init() {
	ckpt.RegisterSenderState(ckpt.XbarFrontState, func() ckpt.SenderState { return &frontState{} })
}

// Checkpoint saves or restores the crossbar's in-flight bookkeeping:
// per-front outstanding counts and layer occupancy, the forwarding counters,
// and every per-port response/request queue with its retry flags. A restore
// targets a freshly built instance with the same port counts.
func (x *Xbar) Checkpoint(s *ckpt.Stream) error {
	s.Section("noc." + x.cfg.Name)
	nf, nd := len(x.fronts), len(x.downs)
	s.Int(&nf)
	s.Int(&nd)
	if s.Err() == nil && (nf != len(x.fronts) || nd != len(x.downs)) {
		return fmt.Errorf("noc %s: checkpoint shape %d/%d does not match %d/%d",
			x.cfg.Name, nf, nd, len(x.fronts), len(x.downs))
	}
	for i := range x.outstanding {
		s.Int(&x.outstanding[i])
	}
	for i := range x.ingressBusy {
		s.U64((*uint64)(&x.ingressBusy[i]))
	}
	for i := range x.egressBusy {
		s.U64((*uint64)(&x.egressBusy[i]))
	}
	s.U64(&x.forwarded)
	s.U64(&x.Responses)
	for i := range x.fronts {
		if err := x.fronts[i].Checkpoint(s); err != nil {
			return err
		}
		if err := x.respQs[i].Checkpoint(s); err != nil {
			return err
		}
	}
	for i := range x.reqQs {
		if err := x.reqQs[i].Checkpoint(s); err != nil {
			return err
		}
	}
	return s.Err()
}
