package cpu

import (
	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/sim"
)

// loadState travels on in-flight packets, so it must checkpoint with them.
func (s *loadState) SenderStateKind() uint8 { return ckpt.CPULoadState }

// EncodeSenderState writes the load-state fields.
func (s *loadState) EncodeSenderState(w *ckpt.Writer) {
	w.Bool(s.isLoad)
	w.Bool(s.isFetch)
	w.U8(s.rd)
}

func init() {
	ckpt.RegisterSenderState(ckpt.CPULoadState, func(r *ckpt.Reader) any {
		return &loadState{isLoad: r.Bool(), isFetch: r.Bool(), rd: r.U8()}
	})
}

// SaveState captures the core's architectural and microarchitectural state:
// registers, PC, the load scoreboard, outstanding-access counters, fetch
// engine state, sleep/exit latches, statistics, and the clock ticker plus
// wake event. The decoded-instruction cache is deliberately skipped — it is
// rebuilt lazily through untimed reads of the store, which cannot perturb
// timing.
func (c *Core) SaveState(w *ckpt.Writer) error {
	w.Section("cpu.core")
	for _, v := range c.regs {
		w.U64(v)
	}
	w.U64(c.pc)
	for _, p := range c.pendingReg {
		w.Bool(p)
	}
	w.Int(c.outLoads)
	w.Int(c.outStores)
	w.U64(c.fetchBlock)
	w.Int(c.fetchOutstanding)
	w.U64(c.stallCycles)
	w.Bool(c.exited)
	w.I64(c.exitCode)
	w.Bool(c.sleeping)
	saveCPUStats(w, &c.stats)
	sim.SaveEvent(w, c.wakeEv)
	return c.ticker.SaveState(w)
}

// RestoreState reinstates the state captured by SaveState into a freshly
// built core. Host-side wiring (OnCommit, OnExit, Out) is not part of the
// checkpoint; callers re-register their hooks after restoring.
func (c *Core) RestoreState(r *ckpt.Reader) error {
	r.Section("cpu.core")
	for i := range c.regs {
		c.regs[i] = r.U64()
	}
	c.pc = r.U64()
	for i := range c.pendingReg {
		c.pendingReg[i] = r.Bool()
	}
	c.outLoads = r.Int()
	c.outStores = r.Int()
	c.fetchBlock = r.U64()
	c.fetchOutstanding = r.Int()
	c.stallCycles = r.U64()
	c.exited = r.Bool()
	c.exitCode = r.I64()
	c.sleeping = r.Bool()
	restoreCPUStats(r, &c.stats)
	c.q.RestoreEvent(r, c.wakeEv)
	return c.ticker.RestoreState(r)
}

func saveCPUStats(w *ckpt.Writer, s *Stats) {
	w.U64(s.Cycles)
	w.U64(s.Committed)
	w.U64(s.Loads)
	w.U64(s.Stores)
	w.U64(s.Branches)
	w.U64(s.TakenBr)
	w.U64(s.LoadStalls)
	w.U64(s.FetchStalls)
	w.U64(s.QueueStalls)
	w.U64(s.SleepCycles)
	w.U64(s.Syscalls)
}

func restoreCPUStats(r *ckpt.Reader, s *Stats) {
	s.Cycles = r.U64()
	s.Committed = r.U64()
	s.Loads = r.U64()
	s.Stores = r.U64()
	s.Branches = r.U64()
	s.TakenBr = r.U64()
	s.LoadStalls = r.U64()
	s.FetchStalls = r.U64()
	s.QueueStalls = r.U64()
	s.SleepCycles = r.U64()
	s.Syscalls = r.U64()
}
