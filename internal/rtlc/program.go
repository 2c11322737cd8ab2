package rtlc

import (
	"fmt"
	"math/bits"
	"strings"

	"gem5rtl/internal/rtl"
)

// Op is a bytecode opcode. The set is deliberately small and total: every
// operation produces a defined result for every input (division by zero,
// out-of-range shifts and indexes follow the rtl package's reference
// evaluator bit for bit), so instructions can be executed eagerly and folded
// at compile time with the very same interpreter that runs them at runtime.
type Op uint8

// The bytecode instruction set. Operand meaning is given per opcode; r[i]
// denotes register-file slot i, and unless stated otherwise the result is
// masked with Inst.Mask before the store to r[Dst].
const (
	// OpCopy: r[Dst] = r[A] & Mask.
	OpCopy Op = iota
	// OpAdd: r[Dst] = (r[A] + r[B]) & Mask.
	OpAdd
	// OpSub: r[Dst] = (r[A] - r[B]) & Mask.
	OpSub
	// OpMul: r[Dst] = (r[A] * r[B]) & Mask.
	OpMul
	// OpDiv: r[Dst] = r[B]==0 ? Mask : (r[A] / r[B]) & Mask.
	OpDiv
	// OpMod: r[Dst] = r[B]==0 ? r[A] & Mask : (r[A] % r[B]) & Mask.
	OpMod
	// OpAnd: r[Dst] = r[A] & r[B] & Mask.
	OpAnd
	// OpOr: r[Dst] = (r[A] | r[B]) & Mask.
	OpOr
	// OpXor: r[Dst] = (r[A] ^ r[B]) & Mask.
	OpXor
	// OpShl: r[Dst] = r[B]>=64 ? 0 : (r[A] << r[B]) & Mask.
	OpShl
	// OpShr: r[Dst] = r[B]>=64 ? 0 : (r[A] >> r[B]) & Mask.
	OpShr
	// OpSra: arithmetic shift right of r[A] sign-extended from width 64-WA
	// by min(r[B], 63), masked. WA holds 64 minus the operand width so the
	// sign extension is two shifts with no table lookup.
	OpSra
	// OpShrC: r[Dst] = (r[A] >> WA) & Mask — constant shift, the Slice node.
	OpShrC
	// OpShlOr: r[Dst] = r[A]<<WA | r[B] — one Concat accumulation step.
	// No masking: the IR guarantees concat widths total at most 64.
	OpShlOr
	// OpEq: r[Dst] = r[A]==r[B] ? 1 : 0. Comparisons ignore Mask (results
	// are a single bit).
	OpEq
	// OpNe: r[Dst] = r[A]!=r[B] ? 1 : 0.
	OpNe
	// OpLt: r[Dst] = r[A]<r[B] ? 1 : 0 (unsigned).
	OpLt
	// OpLe: r[Dst] = r[A]<=r[B] ? 1 : 0 (unsigned).
	OpLe
	// OpGt: r[Dst] = r[A]>r[B] ? 1 : 0 (unsigned).
	OpGt
	// OpGe: r[Dst] = r[A]>=r[B] ? 1 : 0 (unsigned).
	OpGe
	// OpSLt: signed r[A]<r[B] with operands sign-extended from widths
	// 64-WA and 64-WB respectively.
	OpSLt
	// OpSLe: signed <=, operand widths as in OpSLt.
	OpSLe
	// OpSGt: signed >, operand widths as in OpSLt.
	OpSGt
	// OpSGe: signed >=, operand widths as in OpSLt.
	OpSGe
	// OpLAnd: r[Dst] = (r[A]!=0 && r[B]!=0) ? 1 : 0.
	OpLAnd
	// OpLOr: r[Dst] = (r[A]!=0 || r[B]!=0) ? 1 : 0.
	OpLOr
	// OpNot: r[Dst] = ^r[A] & Mask.
	OpNot
	// OpNeg: r[Dst] = (-r[A]) & Mask.
	OpNeg
	// OpRedXor: r[Dst] = parity of r[A] (popcount & 1).
	OpRedXor
	// OpIndex: dynamic bit select — r[Dst] = r[B] >= WA ? 0 :
	// (r[A]>>r[B]) & 1, where WA is the indexed operand's width.
	OpIndex
	// OpMux: r[Dst] = (r[A]!=0 ? r[B] : r[C]) & Mask.
	OpMux
	// OpMuxEq: fused compare+select — r[Dst] = (r[A]==r[B] ? r[C] : r[D])
	// & Mask. Collapses the (sel == K) ? a : b chains that dominate
	// register-file read muxes into one dispatch.
	OpMuxEq
	// OpMuxNe: r[Dst] = (r[A]!=r[B] ? r[C] : r[D]) & Mask.
	OpMuxNe
	// OpMuxLt: r[Dst] = (r[A]<r[B] ? r[C] : r[D]) & Mask (unsigned).
	OpMuxLt
	// OpMuxGe: r[Dst] = (r[A]>=r[B] ? r[C] : r[D]) & Mask (unsigned).
	OpMuxGe
	// OpMemRead: r[Dst] = (r[A] >= len(mems[B]) ? 0 : mems[B][r[A]]) & Mask.
	// B is a memory ID, not a register. The raw word is unmasked (Mask is
	// all-ones) except when the read is retargeted into a narrower store,
	// mirroring the reference's read-raw/mask-at-assign behaviour.
	OpMemRead
	// OpSelect: table select over one selector — r[Dst] = r[T[r[A]]] & Mask
	// when r[A] < len(T), else r[C] & Mask, where T = Program.Tables[B] maps
	// a selector value to the register holding that case's arm (the default
	// register C fills the gaps). B is a table ID, not a register. One
	// OpSelect replaces a whole (sel == K0) ? a0 : (sel == K1) ? a1 : ... d
	// chain over a single selector — the shape of register-file read muxes.
	OpSelect

	nOps
)

var opNames = [nOps]string{
	OpCopy: "copy", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div",
	OpMod: "mod", OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl",
	OpShr: "shr", OpSra: "sra", OpShrC: "shrc", OpShlOr: "shlor", OpEq: "eq",
	OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge", OpSLt: "slt",
	OpSLe: "sle", OpSGt: "sgt", OpSGe: "sge", OpLAnd: "land", OpLOr: "lor",
	OpNot: "not", OpNeg: "neg", OpRedXor: "redxor", OpIndex: "index",
	OpMux: "mux", OpMuxEq: "muxeq", OpMuxNe: "muxne", OpMuxLt: "muxlt",
	OpMuxGe: "muxge", OpMemRead: "memrd", OpSelect: "select",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Inst is one register-machine instruction. Dst and the register operands
// A..D index the flat register file; WA/WB carry small immediates (shift
// amounts, sign-extension widths, index bounds) and Mask the result mask.
// The struct is word-packed to 32 bytes so the dispatch loop streams the
// code array through the cache.
type Inst struct {
	Op     Op
	WA, WB uint8
	Dst    uint32
	A      uint32
	B      uint32
	C      uint32
	D      uint32
	Mask   uint64
}

// eachSrc calls f on each operand field of in that names a register. B is a
// memory ID for OpMemRead and a table ID for OpSelect — the table's entries
// (in tabs) are visited instead; WA/WB are immediates.
func (in *Inst) eachSrc(tabs [][]uint32, f func(*uint32)) {
	switch in.Op {
	case OpCopy, OpNot, OpNeg, OpRedXor, OpShrC, OpMemRead:
		f(&in.A)
	case OpSelect:
		f(&in.A)
		f(&in.C)
		t := tabs[in.B]
		for i := range t {
			f(&t[i])
		}
	case OpMux:
		f(&in.A)
		f(&in.B)
		f(&in.C)
	case OpMuxEq, OpMuxNe, OpMuxLt, OpMuxGe:
		f(&in.A)
		f(&in.B)
		f(&in.C)
		f(&in.D)
	default:
		f(&in.A)
		f(&in.B)
	}
}

// opUsesMask reports whether the opcode applies Inst.Mask to its result.
// Ops that don't (comparisons, reductions, OpShlOr, OpIndex) produce values
// already narrower than any destination they are retargeted into, except
// OpShlOr whose width the compiler checks before retargeting.
func opUsesMask(op Op) bool {
	switch op {
	case OpCopy, OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor,
		OpShl, OpShr, OpSra, OpShrC, OpNot, OpNeg,
		OpMux, OpMuxEq, OpMuxNe, OpMuxLt, OpMuxGe, OpMemRead, OpSelect:
		return true
	}
	return false
}

// SeqProg is the compiled next-state function of one sequential assignment.
// The VM evaluates it only on cycles where a signal or memory its code reads
// changed value (Program.Fanout); otherwise the register provably recomputes
// its current value and keeps it.
type SeqProg struct {
	// Dst is the register's signal slot (also its value-file index).
	Dst rtl.SigID
	// Out is the register holding the computed next value after Code runs.
	Out uint32
	// Code computes the next value from current (pre-edge) state.
	Code []Inst
}

// MemWProg is the compiled write port of one memory: Code computes the
// enable, address and data expressions into the En/Addr/Data registers. The
// ports of one memory are activated as a group — when no port of a memory
// read anything that changed, each port recomputes last cycle's write, whose
// commit left the array word already equal to the data — so last-writer-wins
// ordering between ports is never reordered.
type MemWProg struct {
	// Mem is the target memory.
	Mem rtl.MemID
	// Depth is the memory depth; out-of-range addresses drop the write.
	Depth int
	// Mask is the memory word mask applied to the data.
	Mask uint64
	// Code computes the three port expressions.
	Code []Inst
	// En, Addr and Data are the registers holding the port values after
	// Code runs; the write happens iff En is nonzero.
	En, Addr, Data uint32
}

// CombSeg is one combinational assignment's slice of Program.Comb: straight-
// line code whose only architectural effect is the store to Dst's slot.
type CombSeg struct {
	// Dst is the wire (or comb-driven output) the segment settles.
	Dst rtl.SigID
	// Start and End bound the segment's code: Program.Comb[Start:End].
	Start, End int
}

// Fan is one fan-out edge: a segment whose code reads the edge's source.
type Fan struct {
	// Bits selects the bits of the source signal the reader observes (all
	// ones unless every read goes through a constant slice); a change
	// confined to other bits does not activate the reader. Memory edges
	// carry all ones.
	Bits uint64
	// Seg is the reader's index in the program's activity space: comb
	// segments first, then sequential programs from SeqBase, then memory
	// write-port groups (one per memory) from MemBase.
	Seg uint32
}

// Program is a compiled circuit: a flat register file layout plus straight-
// line code for the combinational pass, each sequential next-state function,
// and each memory write port, and the fan-out tables that let the VM evaluate
// a segment only when something it reads changed value.
//
// The register file is laid out [signal slots | constant pool | temporaries]:
// the first NSig slots are the architectural signal values (the Model adopts
// them as its value store), the next NConst hold the folded constant pool
// (loaded once at VM construction — there is no load-immediate opcode), and
// the rest are scratch temporaries reused by every code segment. No temporary
// is live across segments: a segment reads signal slots, constants and
// memories, and whatever it computes along the way.
type Program struct {
	// NSig is the number of architectural signal slots.
	NSig int
	// NConst is the constant pool size.
	NConst int
	// NTemp is the temporary count (the maximum over all code segments).
	NTemp int
	// Consts is the constant pool, in register order.
	Consts []uint64
	// Comb is the combinational pass in levelised order: the concatenation
	// of the CombSegs' code, so running it front to back settles everything.
	Comb []Inst
	// CombSegs partitions Comb into one segment per combinational
	// assignment, in levelised order: a segment only reads wires settled by
	// segments before it.
	CombSegs []CombSeg
	// Seqs are the sequential next-state programs, in circuit order.
	Seqs []SeqProg
	// MemWs are the memory write ports, in circuit order.
	MemWs []MemWProg
	// Tables holds the OpSelect lookup tables, indexed by Inst.B.
	Tables [][]uint32
	// Inputs lists the circuit's input signals; the VM snapshots them to
	// detect externally driven changes.
	Inputs []rtl.SigID
	// Fanout[s] lists the segments whose code reads signal s directly —
	// wires included: activity propagates through combinational logic one
	// changed value at a time, never through precomputed transitive cones.
	Fanout [][]Fan
	// MemFanout[m] lists the segments that read memory m.
	MemFanout [][]Fan
	// SeqBase and MemBase are the word-aligned offsets of the sequential
	// programs and the memory groups in the activity space; NSeg is its
	// word-aligned size.
	SeqBase, MemBase, NSeg int
}

// RegsLen returns the register file size implied by the layout.
func (p *Program) RegsLen() int { return p.NSig + p.NConst + p.NTemp }

// Len returns the total instruction count across all code segments, a
// compact proxy for compiled size used by tests and diagnostics.
func (p *Program) Len() int {
	n := len(p.Comb)
	for i := range p.Seqs {
		n += len(p.Seqs[i].Code)
	}
	for i := range p.MemWs {
		n += len(p.MemWs[i].Code)
	}
	return n
}

// exec interprets one straight-line code segment against the register file.
// It is the single semantic authority for the instruction set: the VM hot
// path, the compile-time constant folder and the disassembler's doc comments
// all defer to it, so folding can never drift from execution.
func exec(code []Inst, regs []uint64, mems [][]uint64, tabs [][]uint32) {
	for i := range code {
		in := &code[i]
		switch in.Op {
		case OpCopy:
			regs[in.Dst] = regs[in.A] & in.Mask
		case OpAdd:
			regs[in.Dst] = (regs[in.A] + regs[in.B]) & in.Mask
		case OpSub:
			regs[in.Dst] = (regs[in.A] - regs[in.B]) & in.Mask
		case OpMul:
			regs[in.Dst] = (regs[in.A] * regs[in.B]) & in.Mask
		case OpDiv:
			if d := regs[in.B]; d == 0 {
				regs[in.Dst] = in.Mask
			} else {
				regs[in.Dst] = (regs[in.A] / d) & in.Mask
			}
		case OpMod:
			if d := regs[in.B]; d == 0 {
				regs[in.Dst] = regs[in.A] & in.Mask
			} else {
				regs[in.Dst] = (regs[in.A] % d) & in.Mask
			}
		case OpAnd:
			regs[in.Dst] = regs[in.A] & regs[in.B] & in.Mask
		case OpOr:
			regs[in.Dst] = (regs[in.A] | regs[in.B]) & in.Mask
		case OpXor:
			regs[in.Dst] = (regs[in.A] ^ regs[in.B]) & in.Mask
		case OpShl:
			if s := regs[in.B]; s >= 64 {
				regs[in.Dst] = 0
			} else {
				regs[in.Dst] = (regs[in.A] << s) & in.Mask
			}
		case OpShr:
			if s := regs[in.B]; s >= 64 {
				regs[in.Dst] = 0
			} else {
				regs[in.Dst] = (regs[in.A] >> s) & in.Mask
			}
		case OpSra:
			sx := int64(regs[in.A]<<in.WA) >> in.WA
			s := regs[in.B]
			if s >= 64 {
				s = 63
			}
			regs[in.Dst] = uint64(sx>>s) & in.Mask
		case OpShrC:
			regs[in.Dst] = (regs[in.A] >> in.WA) & in.Mask
		case OpShlOr:
			regs[in.Dst] = regs[in.A]<<in.WA | regs[in.B]
		case OpEq:
			regs[in.Dst] = b2u(regs[in.A] == regs[in.B])
		case OpNe:
			regs[in.Dst] = b2u(regs[in.A] != regs[in.B])
		case OpLt:
			regs[in.Dst] = b2u(regs[in.A] < regs[in.B])
		case OpLe:
			regs[in.Dst] = b2u(regs[in.A] <= regs[in.B])
		case OpGt:
			regs[in.Dst] = b2u(regs[in.A] > regs[in.B])
		case OpGe:
			regs[in.Dst] = b2u(regs[in.A] >= regs[in.B])
		case OpSLt:
			regs[in.Dst] = b2u(int64(regs[in.A]<<in.WA)>>in.WA < int64(regs[in.B]<<in.WB)>>in.WB)
		case OpSLe:
			regs[in.Dst] = b2u(int64(regs[in.A]<<in.WA)>>in.WA <= int64(regs[in.B]<<in.WB)>>in.WB)
		case OpSGt:
			regs[in.Dst] = b2u(int64(regs[in.A]<<in.WA)>>in.WA > int64(regs[in.B]<<in.WB)>>in.WB)
		case OpSGe:
			regs[in.Dst] = b2u(int64(regs[in.A]<<in.WA)>>in.WA >= int64(regs[in.B]<<in.WB)>>in.WB)
		case OpLAnd:
			regs[in.Dst] = b2u(regs[in.A] != 0 && regs[in.B] != 0)
		case OpLOr:
			regs[in.Dst] = b2u(regs[in.A] != 0 || regs[in.B] != 0)
		case OpNot:
			regs[in.Dst] = ^regs[in.A] & in.Mask
		case OpNeg:
			regs[in.Dst] = (-regs[in.A]) & in.Mask
		case OpRedXor:
			regs[in.Dst] = uint64(bits.OnesCount64(regs[in.A]) & 1)
		case OpIndex:
			if b := regs[in.B]; b >= uint64(in.WA) {
				regs[in.Dst] = 0
			} else {
				regs[in.Dst] = (regs[in.A] >> b) & 1
			}
		case OpMux:
			if regs[in.A] != 0 {
				regs[in.Dst] = regs[in.B] & in.Mask
			} else {
				regs[in.Dst] = regs[in.C] & in.Mask
			}
		case OpMuxEq:
			if regs[in.A] == regs[in.B] {
				regs[in.Dst] = regs[in.C] & in.Mask
			} else {
				regs[in.Dst] = regs[in.D] & in.Mask
			}
		case OpMuxNe:
			if regs[in.A] != regs[in.B] {
				regs[in.Dst] = regs[in.C] & in.Mask
			} else {
				regs[in.Dst] = regs[in.D] & in.Mask
			}
		case OpMuxLt:
			if regs[in.A] < regs[in.B] {
				regs[in.Dst] = regs[in.C] & in.Mask
			} else {
				regs[in.Dst] = regs[in.D] & in.Mask
			}
		case OpMuxGe:
			if regs[in.A] >= regs[in.B] {
				regs[in.Dst] = regs[in.C] & in.Mask
			} else {
				regs[in.Dst] = regs[in.D] & in.Mask
			}
		case OpMemRead:
			words := mems[in.B]
			if a := regs[in.A]; a >= uint64(len(words)) {
				regs[in.Dst] = 0
			} else {
				regs[in.Dst] = words[a] & in.Mask
			}
		case OpSelect:
			src := in.C
			if t, s := tabs[in.B], regs[in.A]; s < uint64(len(t)) {
				src = t[s]
			}
			regs[in.Dst] = regs[src] & in.Mask
		default:
			panic(fmt.Sprintf("rtlc: exec of unknown opcode %d", in.Op))
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// regName renders a register index according to the program layout.
func (p *Program) regName(r uint32) string {
	switch {
	case int(r) < p.NSig:
		return fmt.Sprintf("s%d", r)
	case int(r) < p.NSig+p.NConst:
		return fmt.Sprintf("c%d=%#x", int(r)-p.NSig, p.Consts[int(r)-p.NSig])
	default:
		return fmt.Sprintf("t%d", int(r)-p.NSig-p.NConst)
	}
}

// disasmInst renders one instruction.
func (p *Program) disasmInst(in *Inst) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s = %s", p.regName(in.Dst), in.Op)
	if in.Op == OpSelect {
		// Only the cases that differ from the default: the table is dense.
		fmt.Fprintf(&sb, " %s {", p.regName(in.A))
		sep := ""
		for k, r := range p.Tables[in.B] {
			if r != in.C {
				fmt.Fprintf(&sb, "%s%#x:%s", sep, k, p.regName(r))
				sep = " "
			}
		}
		fmt.Fprintf(&sb, "} else %s", p.regName(in.C))
	} else {
		sep := " "
		inCopy := *in
		(&inCopy).eachSrc(nil, func(r *uint32) {
			sb.WriteString(sep)
			sb.WriteString(p.regName(*r))
			sep = ", "
		})
	}
	if in.Op == OpMemRead {
		fmt.Fprintf(&sb, ", mem%d", in.B)
	}
	if in.WA != 0 || in.WB != 0 {
		fmt.Fprintf(&sb, " [wa=%d wb=%d]", in.WA, in.WB)
	}
	if opUsesMask(in.Op) && in.Mask != ^uint64(0) {
		fmt.Fprintf(&sb, " & %#x", in.Mask)
	}
	return sb.String()
}

// Disasm renders the whole program as human-readable text, one instruction
// per line, for compiler tests and debugging.
func (p *Program) Disasm() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "regs: %d sig + %d const + %d temp\n", p.NSig, p.NConst, p.NTemp)
	sb.WriteString("comb:\n")
	for i := range p.CombSegs {
		sg := &p.CombSegs[i]
		fmt.Fprintf(&sb, " s%d:\n", sg.Dst)
		for j := sg.Start; j < sg.End; j++ {
			fmt.Fprintf(&sb, "  %s\n", p.disasmInst(&p.Comb[j]))
		}
	}
	for i := range p.Seqs {
		sq := &p.Seqs[i]
		fmt.Fprintf(&sb, "seq s%d <- %s:\n", sq.Dst, p.regName(sq.Out))
		for j := range sq.Code {
			fmt.Fprintf(&sb, "  %s\n", p.disasmInst(&sq.Code[j]))
		}
	}
	for i := range p.MemWs {
		w := &p.MemWs[i]
		fmt.Fprintf(&sb, "memw mem%d [en=%s addr=%s data=%s]:\n",
			w.Mem, p.regName(w.En), p.regName(w.Addr), p.regName(w.Data))
		for j := range w.Code {
			fmt.Fprintf(&sb, "  %s\n", p.disasmInst(&w.Code[j]))
		}
	}
	return sb.String()
}
