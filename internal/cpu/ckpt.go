package cpu

import (
	"gem5rtl/internal/ckpt"
)

// loadState travels on in-flight packets, so it must checkpoint with them.
func (s *loadState) SenderStateKind() uint8 { return ckpt.CPULoadState }

// Checkpoint saves or restores the load-state fields.
func (s *loadState) Checkpoint(cs *ckpt.Stream) {
	cs.Bool(&s.isLoad)
	cs.Bool(&s.isFetch)
	cs.U8(&s.rd)
}

func init() {
	ckpt.RegisterSenderState(ckpt.CPULoadState, func() ckpt.SenderState { return &loadState{} })
}

// Checkpoint saves or restores the core's architectural and
// microarchitectural state: registers, PC, the load scoreboard,
// outstanding-access counters, fetch engine state, sleep/exit latches,
// statistics, and the clock ticker plus wake event. The decoded-instruction
// cache is deliberately skipped — it is rebuilt lazily through untimed reads
// of the store, which cannot perturb timing. Host-side wiring (OnCommit,
// OnExit, Out) is not part of the checkpoint; callers re-register their
// hooks after restoring into a freshly built core.
func (c *Core) Checkpoint(s *ckpt.Stream) error {
	s.Section("cpu.core")
	for i := range c.regs {
		s.U64(&c.regs[i])
	}
	s.U64(&c.pc)
	for i := range c.pendingReg {
		s.Bool(&c.pendingReg[i])
	}
	s.Int(&c.outLoads)
	s.Int(&c.outStores)
	s.U64(&c.fetchBlock)
	s.Int(&c.fetchOutstanding)
	s.U64(&c.stallCycles)
	s.Bool(&c.exited)
	s.I64(&c.exitCode)
	s.Bool(&c.sleeping)
	st := &c.stats
	s.U64(&st.Cycles)
	s.U64(&st.Committed)
	s.U64(&st.Loads)
	s.U64(&st.Stores)
	s.U64(&st.Branches)
	s.U64(&st.TakenBr)
	s.U64(&st.LoadStalls)
	s.U64(&st.FetchStalls)
	s.U64(&st.QueueStalls)
	s.U64(&st.SleepCycles)
	s.U64(&st.Syscalls)
	c.q.CheckpointEvent(s, c.wakeEv)
	return c.ticker.Checkpoint(s)
}
