package rtlc

import (
	"fmt"
	"math/bits"
	"slices"

	"gem5rtl/internal/rtl"
)

// Closed forms. A netlist in general has none: its next cycle is whatever
// its code computes. But after a real Tick, with the inputs held where they
// are, a compiled netlist often sits in a stretch where nothing moves except
// a few registers that add a constant every cycle — a free-running cycle
// counter — until one of them crosses a value something compares it with.
// Some inputs need not even hold: a register that only counts how often an
// input bit was set moves by at most one a cycle, so a comparison on it
// cannot flip before its worst case could make it. Quiet finds such a
// stretch in the compiled code itself, by abstract evaluation over the same
// opcodes exec runs; Advance applies n of its cycles at once. The simulator
// still cannot see inside the RTL: nothing here names a register of any
// particular circuit.
//
// Each register-file slot holds one of
//
//   - a known value, the same every cycle of the stretch;
//   - an affine value (base + j·step) mod 2^w after j cycles;
//   - a varying value, computed afresh each cycle from that cycle's varying
//     input bits (or from a pipelined register) and known values;
//   - a counted value: a register that adds a sum of 1-bit terms every cycle,
//     each a varying input bit or a bit of a pipelined register, so that it
//     rises by at most the number of terms a cycle;
//   - unknown.
//
// The registers the next Tick would change are seeded as affine with the
// difference their next-state programs compute, and the varying input bits
// as varying. Then the fan-out cone of the seeds, and only that cone, is
// evaluated abstractly in levelised order: an affine value plus or minus a
// known one stays affine; a varying value stays varying under a mask, a
// shift or any operation with known or varying operands; a mux or select
// whose selector is known picks its arm; a comparison of an affine or
// counted value with a known one is known up to the first cycle it could
// flip or the value could wrap, which bounds the stretch; any other use of
// an affine or counted value is unknown. A register of the cone is then
//
//   - pipelined when its program reads only varying inputs and known values
//     (its value at the end is its program's on the last cycle's inputs), or
//   - counted when its program computes itself plus a sum of terms,
//
// and its readers are evaluated again, until no register changes kind. The
// seeds hold up when
//
//   - every seeded register's program computes itself plus its step,
//   - every other register in the cone recomputes its own value, is
//     pipelined or counted, and every memory write in it rewrites what the
//     array already holds,
//   - and every output is outside the cone (it stays known).
//
// Otherwise, or when anything the walk needs is unknown, the answer is 0.

// forever is the horizon of a stretch only an input can end.
const forever = ^uint64(0)

// noSrc is the src of a varying value that is no bit range of one slot.
const noSrc = ^uint32(0)

// absKind is what the abstract evaluation knows about a slot.
type absKind uint8

const (
	// absHeld is the zero value: the slot keeps what the register file
	// holds, every cycle of the stretch.
	absHeld absKind = iota
	// absKnown: base, every cycle.
	absKnown
	// absAffine: (base + j·step) & mask after j cycles; mask is 2^w - 1.
	absAffine
	// absVary: each cycle's own value. The bits outside step are base's;
	// those under step vary, and are (r[src] >> sh) & step when src names
	// a slot. late marks a value read from a pipelined register, one cycle
	// behind the inputs.
	absVary
	// absCount: a counted register as its readers see it: base now, then up
	// by at most step a cycle, mod mask + 1. src is the register, which a
	// copy, a mask or a pick carries along.
	absCount
	// absSum: a register's next state inside its own program: itself plus
	// the n terms cf.terms[src:src+n], mod mask + 1.
	absSum
	absUnknown
)

type absVal struct {
	kind             absKind
	late             bool
	sh               uint8
	src, n           uint32
	base, step, mask uint64
}

var unknown = absVal{kind: absUnknown}

func known(v uint64) absVal { return absVal{kind: absKnown, base: v} }

// affine normalises (base + j·step) & mask: a zero step is a known value.
func affine(base, step, mask uint64) absVal {
	if step&mask == 0 {
		return known(base & mask)
	}
	return absVal{kind: absAffine, base: base & mask, step: step & mask, mask: mask}
}

// vary normalises a varying value: with no bit varying it is known.
func vary(x absVal, base, step uint64) absVal {
	if step == 0 {
		return known(base)
	}
	x.kind, x.base, x.step, x.mask = absVary, base&^step, step, 0
	return x
}

// lowMask reports whether m is 2^w - 1 for some w.
func lowMask(m uint64) bool { return m&(m+1) == 0 }

// masked is x & m. An affine or counted value stays so under a mask that
// keeps all its bits or cuts it to fewer low bits, which is arithmetic
// modulo a smaller power of two; a register's running sum only under one
// that keeps it whole.
func masked(x absVal, m uint64) absVal {
	switch x.kind {
	case absKnown:
		return known(x.base & m)
	case absVary:
		return vary(x, x.base&m, x.step&m)
	case absAffine, absCount, absSum:
		if m&x.mask == x.mask {
			return x
		}
		if lowMask(m) && m&x.mask == m {
			if x.kind == absAffine {
				return affine(x.base, x.step, m)
			}
			if x.kind == absCount {
				x.base, x.mask = x.base&m, m
				return x
			}
		}
	}
	return unknown
}

// plus is (x + k) & m for an affine x: affine when m is no wider than x,
// whose own wrap would otherwise show.
func plus(x absVal, k, m uint64) absVal {
	if !lowMask(m) || m&x.mask != m {
		return unknown
	}
	return affine(x.base+k, x.step, m)
}

// isTerm reports whether x is one bit of one slot: bit x.sh of x.src.
func isTerm(x absVal) bool {
	return x.kind == absVary && x.src != noSrc && x.step == 1 && x.base == 0
}

// affReg is one register Advance moves by a fixed step.
type affReg struct {
	slot       uint32
	step, mask uint64
}

// term is one bit a counted register adds: bit bit of slot, a varying input
// or a pipelined register.
type term struct {
	slot uint32
	bit  uint8
}

// cntReg is one counted register: it adds the terms cf.res[start:start+n].
type cntReg struct {
	slot, start, n uint32
	mask           uint64
}

// resTerm is a term resolved to the varying input bit behind it, bit. A term
// read through a pipelined register (pipe, bit pbit) lags a cycle: it adds
// the register's bit on the first cycle and misses the input's on the last.
type resTerm struct {
	pipe      uint32
	bit, pbit uint8
}

// pipeReg is one pipelined register: Advance runs its program, Seqs[seq],
// on the last cycle's inputs. res is what the program evaluated to.
type pipeReg struct {
	slot uint32
	seq  int
	res  absVal
}

// closedForm is the analysis state a VM keeps between Quiet and Advance.
type closedForm struct {
	// ab is the abstract register file. Temporaries are written before they
	// are read, as in exec; a signal slot is absHeld unless listed in
	// touched, which Quiet resets afterwards.
	ab      []absVal
	touched []uint32
	// cone is the part of the activity space still to evaluate; comb, seq
	// and memw alias its ranges as in the VM.
	cone            []uint64
	comb, seq, memw []uint64
	// vary is the varying input bits the last Quiet was asked about.
	vary rtl.Vary
	// aff, cnt and pipe are the moving registers of the stretch found, res
	// the counted registers' terms and terms their unresolved form; horizon
	// is the first cycle a comparison in the cone can flip, or forever.
	aff     []affReg
	cnt     []cntReg
	pipe    []pipeReg
	terms   []term
	res     []resTerm
	horizon uint64
	// bad records a failed check of the current pass.
	bad bool
	// left is how much of the stretch Advance may still apply.
	left uint64
	// plan is the signals a traced stretch moves (rtl.ClosedForm.Plan), and
	// planTerms its counted registers' terms.
	plan      []rtl.Move
	planTerms []rtl.Term
	// counts is Advance's scratch: per bit of the varying input, the cycles
	// it was set.
	counts [64]uint64
}

func newClosedForm(p *Program) *closedForm {
	cf := &closedForm{
		ab:   make([]absVal, p.RegsLen()),
		cone: make([]uint64, p.NSeg/64),
	}
	cf.comb = cf.cone[:p.SeqBase/64]
	cf.seq = cf.cone[p.SeqBase/64 : p.MemBase/64]
	cf.memw = cf.cone[p.MemBase/64:]
	return cf
}

func (cf *closedForm) get(regs []uint64, r uint32) absVal {
	if a := cf.ab[r]; a.kind != absHeld {
		return a
	}
	return known(regs[r])
}

func (cf *closedForm) put(r uint32, a absVal, nsig int) {
	if int(r) < nsig && cf.ab[r].kind == absHeld {
		cf.touched = append(cf.touched, r)
	}
	cf.ab[r] = a
}

// spread adds the readers of the given bits of signal s to the cone.
func (cf *closedForm) spread(p *Program, s uint32, bits uint64) {
	for _, f := range p.Fanout[s] {
		if f.Bits&bits != 0 {
			cf.cone[f.Seg>>6] |= 1 << (f.Seg & 63)
		}
	}
}

// endStretch forgets the stretch the last Quiet found: the model is about to
// be evaluated, or was changed behind the VM's back.
func (v *VM) endStretch() {
	if v.cf != nil {
		v.cf.left = 0
	}
}

// Quiet implements rtl.ClosedForm: it reports how many of the coming cycles,
// with every input held at its current value but the bits vary names,
// Advance can apply in closed form — ^uint64(0) when only an input can move
// the model, 0 when the analysis cannot tell. It reads the state a Tick left
// and changes nothing. With trace set it also plans what a waveform records
// of the stretch, and answers 0 unless every moving signal of the cone has a
// source its record can be computed from (see planMoves).
func (v *VM) Quiet(vary rtl.Vary, trace bool) uint64 {
	cf := v.cf
	if cf == nil {
		cf = newClosedForm(v.p)
		v.cf = cf
	}
	v.analyses++
	cf.vary = vary
	cf.aff = cf.aff[:0]
	cf.plan, cf.planTerms = cf.plan[:0], cf.planTerms[:0]
	k := v.quiet(cf)
	if trace && k != 0 && !cf.planMoves() {
		k = 0
	}
	for _, s := range cf.touched {
		cf.ab[s] = absVal{}
	}
	cf.touched = cf.touched[:0]
	clear(cf.cone)
	cf.left = k
	return k
}

// planMoves lists the moving signals of the cone in cf.plan, by kind and
// then signal index (rtl.MoveKind), and reports whether each has a source:
//
//   - an affine signal has its own last value;
//   - a varying one, a bit range of a varying input or of a pipelined
//     register, and a pipelined register a bit range of a varying input;
//   - a counted register, its terms;
//   - a copy of a counted register, that register.
//
// A signal the walk found known holds its current value (the walk rejects
// any other), so it has no record to write.
func (cf *closedForm) planMoves() bool {
	for _, s := range cf.touched {
		a := cf.ab[s]
		mv := rtl.Move{Sig: rtl.SigID(s)}
		switch a.kind {
		case absHeld, absKnown:
			continue
		case absAffine:
			mv.Kind, mv.Step, mv.Mask = rtl.MoveAffine, a.step, a.mask
		case absVary:
			mv.Kind = rtl.MoveVarying
			if pr := cf.pipeOf(s); pr != nil {
				mv.Kind, a = rtl.MovePipelined, pr.res
			}
			if a.src == noSrc {
				return false
			}
			mv.Src, mv.Sh, mv.Base, mv.Step = rtl.SigID(a.src), a.sh, a.base, a.step
		case absCount:
			c := cf.cntOf(s)
			if c == nil {
				if cf.cntOf(a.src) == nil {
					return false
				}
				mv.Kind, mv.Src, mv.Mask = rtl.MoveCopy, rtl.SigID(a.src), a.mask
				break
			}
			mv.Kind, mv.Mask = rtl.MoveCounted, c.mask
			start := len(cf.planTerms)
			for _, t := range cf.res[c.start : c.start+c.n] {
				tm := rtl.Term{Sig: cf.vary.In, Bit: t.bit}
				if t.pipe != noSrc {
					tm = rtl.Term{Sig: rtl.SigID(t.pipe), Bit: t.pbit}
				}
				cf.planTerms = append(cf.planTerms, tm)
			}
			mv.Terms = cf.planTerms[start:len(cf.planTerms):len(cf.planTerms)]
		default:
			return false
		}
		// touched can name a slot twice; insertion keeps the plan sorted
		// and single.
		i := len(cf.plan)
		for i > 0 && (mv.Kind < cf.plan[i-1].Kind || mv.Kind == cf.plan[i-1].Kind && mv.Sig < cf.plan[i-1].Sig) {
			i--
		}
		if i > 0 && cf.plan[i-1].Sig == mv.Sig {
			continue
		}
		cf.plan = slices.Insert(cf.plan, i, mv)
	}
	return true
}

// cntOf returns the counted register at slot s.
func (cf *closedForm) cntOf(s uint32) *cntReg {
	for i := range cf.cnt {
		if cf.cnt[i].slot == s {
			return &cf.cnt[i]
		}
	}
	return nil
}

// Plan implements rtl.ClosedForm: the signals the stretch the last traced
// Quiet found moves.
func (v *VM) Plan() []rtl.Move { return v.cf.plan }

func (v *VM) quiet(cf *closedForm) uint64 {
	p := v.p
	if !bitsetZero(v.comb) {
		return 0
	}
	for i, id := range p.Inputs {
		if v.regs[id] != v.inSnap[i] {
			return 0
		}
	}
	// Seeds. A register that was not woken recomputes its value (the
	// activity rule); one that was and recomputes its value is no seed.
	for w, m := range v.seq {
		for ; m != 0; m &= m - 1 {
			j := w<<6 + bits.TrailingZeros64(m)
			sq := &p.Seqs[j]
			exec(sq.Code, v.regs, v.mems, p.Tables)
			if cur, nv := v.regs[sq.Dst], v.regs[sq.Out]; nv != cur {
				step := (nv - cur) & sq.Mask
				cf.aff = append(cf.aff, affReg{uint32(sq.Dst), step, sq.Mask})
				cf.put(uint32(sq.Dst), absVal{kind: absAffine, base: cur, step: step, mask: sq.Mask}, p.NSig)
				cf.seq[w] |= 1 << (j & 63)
				cf.spread(p, uint32(sq.Dst), ^uint64(0))
			}
		}
	}
	for w := range v.memw {
		cf.memw[w] |= v.memw[w]
	}
	if vr := cf.vary; vr.Bits != 0 {
		in := uint32(vr.In)
		cf.put(in, vary(absVal{src: in}, v.regs[in], vr.Bits), p.NSig)
		cf.spread(p, in, vr.Bits)
	}
	// Walk the cone until no register changes kind: the last pass saw every
	// value as the stretch has it. A register only ever moves up, from held
	// or affine to pipelined or counted, or to more terms.
	for pass := 0; ; pass++ {
		if pass > 2*len(p.Seqs)+2 {
			return 0
		}
		if !v.absPass(cf) {
			break
		}
	}
	if cf.bad {
		return 0
	}
	for _, o := range p.Outputs {
		if cf.ab[o].kind != absHeld {
			return 0
		}
	}
	for w, m := range cf.memw {
		for ; m != 0; m &= m - 1 {
			mem := uint32(w<<6 + bits.TrailingZeros64(m))
			for i := range p.MemWs {
				wp := &p.MemWs[i]
				if uint32(wp.Mem) != mem {
					continue
				}
				v.absRun(cf, wp.Code)
				en := cf.get(v.regs, wp.En)
				if en.kind != absKnown {
					return 0
				}
				if en.base == 0 {
					continue
				}
				addr, data := cf.get(v.regs, wp.Addr), cf.get(v.regs, wp.Data)
				if addr.kind != absKnown || data.kind != absKnown {
					return 0
				}
				if addr.base < uint64(wp.Depth) && v.mems[mem][addr.base] != data.base&wp.Mask {
					return 0
				}
			}
		}
	}
	// Seeds that turned out to count leave the affine list.
	n := 0
	for _, a := range cf.aff {
		if cf.ab[a.slot].kind == absAffine {
			cf.aff[n] = a
			n++
		}
	}
	cf.aff = cf.aff[:n]
	if !cf.resolve() {
		return 0
	}
	if len(cf.aff)+len(cf.cnt)+len(cf.pipe) == 0 || cf.horizon == forever {
		return forever
	}
	// Cycles 1..horizon-1 run on comparisons that cannot have flipped yet.
	return cf.horizon - 1
}

// absPass evaluates the cone once, in levelised order, and then every
// register program in it, and reports whether a register changed kind. A
// failed check sets cf.bad; only the last pass's verdict counts, because a
// register that changes kind leaves values before it stale.
func (v *VM) absPass(cf *closedForm) (grew bool) {
	p := v.p
	cf.bad, cf.horizon = false, forever
	cf.cnt, cf.pipe, cf.terms = cf.cnt[:0], cf.pipe[:0], cf.terms[:0]
	// The combinational cone: a segment reading a moving wire joins the walk
	// after the one that produced it.
	for w := range cf.comb {
		for done := uint64(0); cf.comb[w]&^done != 0; {
			b := bits.TrailingZeros64(cf.comb[w] &^ done)
			done |= 1 << b
			sg := &p.CombSegs[w<<6+b]
			v.absRun(cf, p.Comb[sg.Start:sg.End])
			switch r := cf.ab[sg.Dst]; r.kind {
			case absKnown:
				if r.base != v.regs[sg.Dst] {
					cf.bad = true
				}
				cf.ab[sg.Dst] = absVal{}
			case absAffine, absCount:
				cf.spread(p, uint32(sg.Dst), ^uint64(0))
			case absVary:
				cf.spread(p, uint32(sg.Dst), r.step)
			default:
				cf.bad = true
			}
		}
	}
	for w := range cf.seq {
		for done := uint64(0); cf.seq[w]&^done != 0; {
			b := bits.TrailingZeros64(cf.seq[w] &^ done)
			done |= 1 << b
			j := w<<6 + b
			if v.absSeq(cf, j) {
				grew = true
			}
		}
	}
	return grew
}

// absSeq evaluates register program j of the cone and reports whether the
// register changed kind.
func (v *VM) absSeq(cf *closedForm, j int) bool {
	p := v.p
	sq := &p.Seqs[j]
	d := uint32(sq.Dst)
	cur := v.regs[d]
	was := cf.ab[d]
	switch was.kind {
	case absAffine:
		v.absRun(cf, sq.Code)
		if cf.get(v.regs, sq.Out) == affine(was.base+was.step, was.step, was.mask) {
			return false
		}
	case absHeld:
		v.absRun(cf, sq.Code)
		if r := cf.get(v.regs, sq.Out); r.kind == absKnown {
			if r.base != cur {
				cf.bad = true
			}
			return false
		}
	}
	// Read the register as itself plus nothing yet: its program either adds
	// terms to that, or does not read it at all.
	cf.put(d, absVal{kind: absSum, src: uint32(len(cf.terms)), mask: sq.Mask}, p.NSig)
	v.absRun(cf, sq.Code)
	r := cf.get(v.regs, sq.Out)
	var now absVal
	switch {
	case r.kind == absSum && r.n > 0 && r.mask == sq.Mask:
		now = absVal{kind: absCount, src: d, base: cur, step: uint64(r.n), mask: sq.Mask}
		cf.cnt = append(cf.cnt, cntReg{slot: d, start: r.src, n: r.n, mask: sq.Mask})
	case r.kind == absVary && !r.late && r.base == cur&^r.step:
		now = absVal{kind: absVary, late: true, src: d, base: r.base, step: r.step}
		cf.pipe = append(cf.pipe, pipeReg{slot: d, seq: j, res: r})
	default:
		cf.ab[d] = was
		cf.bad = true
		return false
	}
	cf.ab[d] = now
	if now == was {
		return false
	}
	if now.kind == absVary {
		cf.spread(p, d, now.step)
	} else {
		cf.spread(p, d, ^uint64(0))
	}
	return true
}

// resolve maps every counted register's terms to the varying input bits
// behind them, into cf.res, and reports whether each has one.
func (cf *closedForm) resolve() bool {
	cf.res = cf.res[:0]
	for i := range cf.cnt {
		c := &cf.cnt[i]
		start := uint32(len(cf.res))
		for _, t := range cf.terms[c.start : c.start+c.n] {
			rt := resTerm{pipe: noSrc}
			in, bit := t.slot, uint(t.bit)
			if cf.ab[in].late {
				pr := cf.pipeOf(in)
				if pr == nil || pr.res.src == noSrc || pr.res.step>>bit&1 == 0 {
					return false
				}
				rt.pipe, rt.pbit = in, uint8(bit)
				in, bit = pr.res.src, uint(pr.res.sh)+bit
			}
			if in != uint32(cf.vary.In) || cf.vary.Bits>>bit&1 == 0 {
				return false
			}
			rt.bit = uint8(bit)
			cf.res = append(cf.res, rt)
		}
		c.start = start
	}
	return true
}

// pipeOf returns the pipelined register at slot s.
func (cf *closedForm) pipeOf(s uint32) *pipeReg {
	for i := range cf.pipe {
		if cf.pipe[i].slot == s {
			return &cf.pipe[i]
		}
	}
	return nil
}

// Advance implements rtl.ClosedForm: it applies n cycles of the stretch the
// last Quiet found, n no more than what is left of it — each affine register
// takes n steps at once, each counted one the number of cycles the log had
// each of its terms set, each pipelined one its program's value on the last
// cycle's inputs, and the logic reading them is settled — leaving the VM as
// n Ticks over those inputs would have, up to segments woken that will
// recompute what they hold.
func (v *VM) Advance(n uint64, log *rtl.Log) {
	cf := v.cf
	if cf == nil || n > cf.left {
		panic(fmt.Sprintf("rtlc: Advance(%d) beyond the quiet stretch", n))
	}
	if cf.left != forever {
		cf.left -= n
	}
	// Counted registers first: a lagging term reads its pipelined register
	// as the stretch found it. What a counted or pipelined register holds
	// after the stretch may step again on the next Tick: its readers are
	// woken whatever it moved.
	if len(cf.cnt) > 0 {
		cf.counts = [64]uint64{}
		log.Counts(cf.vary.Bits, &cf.counts)
	}
	for _, c := range cf.cnt {
		sum := v.regs[c.slot]
		for _, t := range cf.res[c.start : c.start+c.n] {
			sum += cf.counts[t.bit]
			if t.pipe != noSrc {
				sum += v.regs[t.pipe]>>t.pbit&1 - log.Last()>>t.bit&1
			}
		}
		v.regs[c.slot] = sum & c.mask
		v.wake(c.slot, c.mask)
	}
	// The varying input takes its last cycle's value, and the pipelined
	// registers what their programs compute from it (no pipelined register
	// reads another).
	if vr := cf.vary; vr.Bits != 0 {
		v.regs[vr.In] = v.regs[vr.In]&^vr.Bits | log.Last()&vr.Bits
		v.scanInputs()
		v.settle()
		for _, pr := range cf.pipe {
			sq := &v.p.Seqs[pr.seq]
			exec(sq.Code, v.regs, v.mems, v.p.Tables)
			v.regs[pr.slot] = v.regs[sq.Out]
			v.wake(pr.slot, ^uint64(0))
		}
	}
	for _, a := range cf.aff {
		old := v.regs[a.slot]
		if nv := (old + n*a.step) & a.mask; nv != old {
			v.regs[a.slot] = nv
			v.wake(a.slot, nv^old)
		}
	}
	v.settle()
}

// absRun evaluates a code segment abstractly.
func (v *VM) absRun(cf *closedForm, code []Inst) {
	for i := range code {
		cf.put(code[i].Dst, v.absInst(cf, &code[i]), v.p.NSig)
	}
}

// muxCmp is the comparison a fused compare-and-select makes.
var muxCmp = [nOps]Op{OpMuxEq: OpEq, OpMuxNe: OpNe, OpMuxLt: OpLt, OpMuxGe: OpGe}

// absInst is exec's switch over the abstract domain.
func (v *VM) absInst(cf *closedForm, in *Inst) absVal {
	a := cf.get(v.regs, in.A)
	switch in.Op {
	case OpCopy:
		return masked(a, in.Mask)
	case OpNot, OpNeg, OpRedXor, OpShrC, OpMemRead:
		if a.kind == absKnown {
			return v.fold(in, a.base, 0)
		}
		if in.Op == OpShrC && a.kind == absVary {
			a.sh += in.WA
			return vary(a, a.base>>in.WA&in.Mask, a.step>>in.WA&in.Mask)
		}
	case OpSelect:
		if a.kind == absKnown {
			src := in.C
			if t := v.p.Tables[in.B]; a.base < uint64(len(t)) {
				src = t[a.base]
			}
			return masked(cf.get(v.regs, src), in.Mask)
		}
	case OpMux:
		if c := cf.compare(OpNe, a, known(0)); c.kind == absKnown {
			return v.pick(cf, in, c, in.B, in.C)
		}
	case OpMuxEq, OpMuxNe, OpMuxLt, OpMuxGe:
		if c := cf.compare(muxCmp[in.Op], a, cf.get(v.regs, in.B)); c.kind == absKnown {
			return v.pick(cf, in, c, in.C, in.D)
		}
	default:
		b := cf.get(v.regs, in.B)
		if a.kind == absKnown && b.kind == absKnown {
			return v.fold(in, a.base, b.base)
		}
		if r := cf.binary(in, a, b); r.kind != absUnknown {
			return r
		}
	}
	return v.varying(cf, in)
}

// binary is the abstract value of a two-operand instruction with an operand
// that is not known, or unknown.
func (cf *closedForm) binary(in *Inst, a, b absVal) absVal {
	switch in.Op {
	case OpAdd:
		if a.kind == absKnown {
			a, b = b, a
		}
		switch {
		case a.kind == absAffine && b.kind == absKnown:
			return plus(a, b.base, in.Mask)
		case a.kind == absSum && b.kind == absKnown && b.base == 0:
			// A term its known gate turned off.
			return masked(a, in.Mask)
		case a.kind == absSum && isTerm(b) || b.kind == absSum && isTerm(a):
			if b.kind == absSum {
				a, b = b, a
			}
			if in.Mask&a.mask != a.mask {
				return unknown
			}
			return cf.addTerm(a, term{b.src, b.sh})
		}
	case OpSub:
		if a.kind == absAffine && b.kind == absKnown {
			return plus(a, -b.base, in.Mask)
		}
		if a.kind == absKnown && b.kind == absAffine {
			return plus(affine(-b.base, -b.step, b.mask), a.base, in.Mask)
		}
	case OpAnd:
		if a.kind == absKnown {
			a, b = b, a
		}
		if a.kind == absVary && b.kind == absKnown {
			return masked(a, b.base&in.Mask)
		}
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return cf.compare(in.Op, a, b)
	}
	return unknown
}

// addTerm is a running sum with one more term.
func (cf *closedForm) addTerm(s absVal, t term) absVal {
	if int(s.src+s.n) != len(cf.terms) {
		cf.terms = append(cf.terms, cf.terms[s.src:s.src+s.n]...)
		s.src = uint32(len(cf.terms)) - s.n
	}
	cf.terms = append(cf.terms, t)
	s.n++
	return s
}

// varying is the value of an instruction whose operands are all known or
// varying, at least one of them varying: that cycle's own value, whatever
// it computes. Any other is unknown.
func (v *VM) varying(cf *closedForm, in *Inst) absVal {
	r := absVal{kind: absVary, src: noSrc}
	ok, any := true, false
	in.eachSrc(v.p.Tables, func(s *uint32) {
		switch x := cf.get(v.regs, *s); x.kind {
		case absKnown:
		case absVary:
			any = true
			r.late = r.late || x.late
		default:
			ok = false
		}
	})
	if !ok || !any {
		return unknown
	}
	switch {
	case opUsesMask(in.Op):
		r.step = in.Mask
	case in.Op == OpShlOr:
		r.step = ^uint64(0)
	default:
		r.step = 1
	}
	return r
}

// fold runs a unary or binary instruction on known operands through exec.
func (v *VM) fold(in *Inst, a, b uint64) absVal {
	regs := [3]uint64{a, b}
	one := [1]Inst{*in}
	one[0].Dst, one[0].A = 2, 0
	if in.Op != OpMemRead {
		one[0].B = 1
	}
	exec(one[:], regs[:], v.mems, nil)
	return known(regs[2])
}

// pick is a mux: the arm its known condition selects, masked.
func (v *VM) pick(cf *closedForm, in *Inst, cond absVal, t, f uint32) absVal {
	if cond.base == 0 {
		t = f
	}
	return masked(cf.get(v.regs, t), in.Mask)
}

// cmp is exec's unsigned comparison op.
func cmp(op Op, x, y uint64) bool {
	switch op {
	case OpEq:
		return x == y
	case OpNe:
		return x != y
	case OpLt:
		return x < y
	case OpLe:
		return x <= y
	case OpGt:
		return x > y
	}
	return x >= y
}

// compare is an unsigned comparison over the abstract domain. With one side
// affine or counted and the other known its value is the one it has now,
// and the first cycle it could change, or the moving side first wrap,
// bounds the horizon.
func (cf *closedForm) compare(op Op, a, b absVal) absVal {
	switch {
	case a.kind == absKnown && b.kind == absKnown:
		return known(b2u(cmp(op, a.base, b.base)))
	case (a.kind == absAffine || a.kind == absCount) && b.kind == absKnown:
		return cf.flip(op, a, b.base, true)
	case a.kind == absKnown && (b.kind == absAffine || b.kind == absCount):
		return cf.flip(op, b, a.base, false)
	}
	return unknown
}

// flip compares moving x with k (x on the left when left is set), lowers the
// horizon to the first cycle j >= 1 the result can differ from cycle 0's, or
// to the first cycle x can wrap, and returns cycle 0's result.
//
// An affine x walks one path. A counted x climbs by anything from 0 to its
// step a cycle, so after j cycles it may hold any value from its base up to
// the worst case base + j·step: that is the walk the horizon is taken on,
// and an equality can flip at any value of it, not only the walk's own.
func (cf *closedForm) flip(op Op, x absVal, k uint64, left bool) absVal {
	pred := func(val uint64) bool {
		if left {
			return cmp(op, val, k)
		}
		return cmp(op, k, val)
	}
	// Until it wraps, x moves monotonically: up by s, or down by d.
	up := x.kind == absCount || x.step <= x.mask>>1
	s, d := x.step, -x.step&x.mask
	var q uint64 // the last cycle before the wrap
	if up {
		q = (x.mask - x.base) / s
	} else {
		q = x.base / d
	}
	at := func(j uint64) uint64 {
		if up {
			return x.base + j*s
		}
		return x.base - j*d
	}
	p0 := pred(x.base)
	h := q + 1
	if q == forever {
		h = forever
	}
	switch op {
	case OpEq, OpNe:
		// True at one value of the walk at most.
		var j uint64
		switch {
		case k == x.base:
			j = 1
		case x.kind == absCount && k > x.base:
			j = (k - x.base + s - 1) / s
		case up && k > x.base && (k-x.base)%s == 0:
			j = (k - x.base) / s
		case !up && k < x.base && (x.base-k)%d == 0:
			j = (x.base - k) / d
		}
		if j != 0 && j < h {
			h = j
		}
	default:
		// Monotone in j until the wrap: find the first flip by bisection.
		if q >= 1 && pred(at(q)) != p0 {
			lo, hi := uint64(1), q
			for lo < hi {
				if mid := lo + (hi-lo)/2; pred(at(mid)) != p0 {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			h = lo
		}
	}
	if h < cf.horizon {
		cf.horizon = h
	}
	return known(b2u(p0))
}
