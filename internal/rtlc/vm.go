package rtlc

import (
	"fmt"
	"math/bits"

	"gem5rtl/internal/rtl"
	"gem5rtl/internal/sim"
)

// VM executes a compiled Program behind the rtl.Backend interface. The first
// NSig slots of its register file are the architectural signal values —
// rtl.Model adopts them as its value store, so Peek/SetInput, VCD dumps,
// checkpoints and fault injection observe and mutate VM state directly.
//
// Evaluation is activity-scheduled by one rule: a segment — a combinational
// assignment, a register's next-state program, a memory's write ports — runs
// only if a value it reads changed since it last ran. Changes are found where
// values are produced (inputs by snapshot comparison, wires by comparing the
// slot across the segment's run, registers and memory words at commit) and
// wake the producer's direct readers through the program's fan-out tables; a
// wire that recomputes to the value it held wakes nobody. A segment that is
// not woken provably recomputes what it already holds, so skipping it is
// observable only through Skipped(), Executed() and wall-clock time, never
// in results. Any mutation the VM cannot see (reset, checkpoint restore,
// fault injection, memory pokes) must call Invalidate, which wakes
// everything.
type VM struct {
	p    *Program
	regs []uint64
	mems [][]uint64

	// active is the wake bitset over the program's activity space: comb
	// segments in [0, SeqBase), sequential programs from SeqBase, memory
	// write-port groups from MemBase. comb, seq and memw alias its three
	// word ranges.
	active          []uint64
	comb, seq, memw []uint64
	inSnap          []uint64

	next    []uint64
	evald   []int32
	memwBuf []memWrite

	skipped  uint64
	executed uint64

	// Self-profiler phase attribution (AttachProfiler). Nil when off.
	prof    *sim.Profiler
	ownComb sim.OwnerID
	ownSeq  sim.OwnerID
	ownMemw sim.OwnerID
}

type memWrite struct {
	mem  rtl.MemID
	addr int
	data uint64
}

// NewVM instantiates a VM for a compiled program, sharing the given memory
// storage (one word slice per circuit memory, depths matching the circuit).
func NewVM(p *Program, mems [][]uint64) (*VM, error) {
	if len(mems) != len(p.MemFanout) {
		return nil, fmt.Errorf("rtlc: %d memory arrays for a program with %d", len(mems), len(p.MemFanout))
	}
	for i := range p.MemWs {
		w := &p.MemWs[i]
		if len(mems[w.Mem]) != w.Depth {
			return nil, fmt.Errorf("rtlc: memory storage shape mismatch for mem %d", w.Mem)
		}
	}
	v := &VM{
		p:       p,
		regs:    make([]uint64, p.RegsLen()),
		mems:    mems,
		active:  make([]uint64, p.NSeg/64),
		inSnap:  make([]uint64, len(p.Inputs)),
		next:    make([]uint64, len(p.Seqs)),
		evald:   make([]int32, 0, len(p.Seqs)),
		memwBuf: make([]memWrite, 0, len(p.MemWs)),
	}
	v.comb = v.active[:p.SeqBase/64]
	v.seq = v.active[p.SeqBase/64 : p.MemBase/64]
	v.memw = v.active[p.MemBase/64:]
	copy(v.regs[p.NSig:], p.Consts)
	v.Invalidate()
	return v, nil
}

// Vals returns the architectural signal slots of the register file.
func (v *VM) Vals() []uint64 { return v.regs[:v.p.NSig] }

// Eval settles the combinational logic against the current inputs: the
// segments a changed input (or an Invalidate) woke, in levelised order.
func (v *VM) Eval() {
	v.scanInputs()
	v.settle()
}

// Invalidate wakes every segment: the next Eval settles all combinational
// logic and the next Tick evaluates every sequential program and write port.
func (v *VM) Invalidate() {
	wakeAll := func(ws []uint64, n int) {
		for i := range ws {
			ws[i] = ^uint64(0)
		}
		if r := n & 63; r != 0 {
			ws[len(ws)-1] = 1<<r - 1
		}
	}
	wakeAll(v.comb, len(v.p.CombSegs))
	wakeAll(v.seq, len(v.p.Seqs))
	wakeAll(v.memw, len(v.mems))
}

// Skipped reports how many sequential next-state evaluations were elided.
func (v *VM) Skipped() uint64 { return v.skipped }

// Executed reports how many bytecode instructions have run, over all code
// segments: the engine's work in units that do not depend on the host.
func (v *VM) Executed() uint64 { return v.executed }

// AttachProfiler implements rtl.PhaseProfiled: Tick sub-attributes its comb
// settles, sequential captures/commits and memory write-port passes to the
// given self-profiler owners. A phase is entered only when it has a woken
// segment to run, so phase counts reflect the work the VM really performs —
// a quiet model charges nothing — while simulation results remain bit-exact.
func (v *VM) AttachProfiler(p *sim.Profiler, comb, seq, memw sim.OwnerID) {
	v.prof, v.ownComb, v.ownSeq, v.ownMemw = p, comb, seq, memw
}

// enter switches self-profiler attribution to owner o (nil-safe).
func (v *VM) enter(o sim.OwnerID) sim.OwnerID {
	if v.prof == nil {
		return 0
	}
	return v.prof.Enter(o)
}

// exit restores the owner saved by enter (nil-safe).
func (v *VM) exit(prev sim.OwnerID) {
	if v.prof != nil {
		v.prof.Exit(prev)
	}
}

func bitsetZero(ws []uint64) bool {
	for _, w := range ws {
		if w != 0 {
			return false
		}
	}
	return true
}

// run executes one code segment.
func (v *VM) run(code []Inst) {
	exec(code, v.regs, v.mems, v.p.Tables)
	v.executed += uint64(len(code))
}

// wake activates the readers of the bits of signal s that changed.
func (v *VM) wake(s uint32, changed uint64) {
	for _, f := range v.p.Fanout[s] {
		if f.Bits&changed != 0 {
			v.active[f.Seg>>6] |= 1 << (f.Seg & 63)
		}
	}
}

// scanInputs wakes the readers of externally driven inputs. Inputs have no
// commit point, so changes are found by comparing against a snapshot.
func (v *VM) scanInputs() {
	for i, id := range v.p.Inputs {
		if nv := v.regs[id]; nv != v.inSnap[i] {
			v.wake(uint32(id), nv^v.inSnap[i])
			v.inSnap[i] = nv
		}
	}
}

// settle runs the woken combinational segments in levelised order. A segment
// whose wire changes value wakes its readers — later segments join this same
// pass, sequential programs and write ports wait for the next capture.
func (v *VM) settle() {
	if bitsetZero(v.comb) {
		return
	}
	prev := v.enter(v.ownComb)
	for w := range v.comb {
		for v.comb[w] != 0 {
			b := bits.TrailingZeros64(v.comb[w])
			v.comb[w] &^= 1 << b
			sg := &v.p.CombSegs[w<<6+b]
			old := v.regs[sg.Dst]
			v.run(v.p.Comb[sg.Start:sg.End])
			if nv := v.regs[sg.Dst]; nv != old {
				v.wake(uint32(sg.Dst), nv^old)
			}
		}
	}
	v.exit(prev)
}

// Tick advances one clock cycle: settle combinational logic against the
// inputs, capture the woken registers' next values and the woken memories'
// writes with pre-edge state, commit what was captured, and settle again so
// wires and outputs reflect the new state — bit-exact against the reference
// evaluator's Tick, minus the evaluations the activity rule proves redundant.
// Commits that change a value wake that value's readers: wires for the
// trailing settle, registers and write ports for the next cycle.
func (v *VM) Tick() {
	v.scanInputs()
	v.settle()

	v.memwBuf = v.memwBuf[:0]
	if !bitsetZero(v.memw) {
		prev := v.enter(v.ownMemw)
		for i := range v.p.MemWs {
			w := &v.p.MemWs[i]
			if v.memw[w.Mem>>6]&(1<<(uint(w.Mem)&63)) == 0 {
				continue
			}
			v.run(w.Code)
			if v.regs[w.En] != 0 {
				if addr := v.regs[w.Addr]; addr < uint64(w.Depth) {
					v.memwBuf = append(v.memwBuf, memWrite{w.Mem, int(addr), v.regs[w.Data] & w.Mask})
				}
			}
		}
		clear(v.memw)
		v.exit(prev)
	}

	v.evald = v.evald[:0]
	if !bitsetZero(v.seq) || len(v.memwBuf) > 0 {
		prev := v.enter(v.ownSeq)
		for w := range v.seq {
			for m := v.seq[w]; m != 0; m &= m - 1 {
				j := w<<6 + bits.TrailingZeros64(m)
				sq := &v.p.Seqs[j]
				v.run(sq.Code)
				v.next[j] = v.regs[sq.Out]
				v.evald = append(v.evald, int32(j))
			}
			v.seq[w] = 0
		}
		for _, j := range v.evald {
			dst := uint32(v.p.Seqs[j].Dst)
			if old, nv := v.regs[dst], v.next[j]; nv != old {
				v.regs[dst] = nv
				v.wake(dst, nv^old)
			}
		}
		for _, w := range v.memwBuf {
			words := v.mems[w.mem]
			if words[w.addr] != w.data {
				words[w.addr] = w.data
				for _, f := range v.p.MemFanout[w.mem] {
					v.active[f.Seg>>6] |= 1 << (f.Seg & 63)
				}
			}
		}
		v.exit(prev)
	}
	v.skipped += uint64(len(v.p.Seqs) - len(v.evald))

	v.settle()
}
