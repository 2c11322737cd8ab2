package rtlc

import (
	"fmt"
	"math/bits"
)

// Closed forms. A netlist in general has none: its next cycle is whatever
// its code computes. But after a real Tick, with the inputs held where they
// are, a compiled netlist often sits in a stretch where nothing moves except
// a few registers that add a constant every cycle — a free-running cycle
// counter — until one of them crosses a value something compares it with.
// Quiet finds such a stretch in the compiled code itself, by abstract
// evaluation over the same opcodes exec runs; Advance applies n of its
// cycles at once. The simulator still cannot see inside the RTL: nothing
// here names a register of any particular circuit.
//
// Each register-file slot holds one of
//
//   - a known value, the same every cycle of the stretch;
//   - an affine value (base + j·step) mod 2^w after j cycles;
//   - unknown.
//
// The registers the next Tick would change are seeded as affine with the
// difference their next-state programs compute. Then the fan-out cone of
// those registers, and only that cone, is evaluated abstractly in levelised
// order: an affine value plus or minus a known one stays affine; a mux or
// select whose selector is known picks its arm; a comparison of an affine
// value with a known one is known up to the cycle it first flips or the
// affine value first wraps, which bounds the stretch; any other use of an
// affine value is unknown. The seeds hold up when
//
//   - every seeded register's program computes itself plus its step,
//   - every other register in the cone recomputes its own value, and every
//     memory write in it rewrites what the array already holds,
//   - and every output is outside the cone (it stays known).
//
// Otherwise, or when anything the walk needs is unknown, the answer is 0.

// forever is the horizon of a stretch only an input can end.
const forever = ^uint64(0)

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
	absUnknown
)

type absVal struct {
	kind             absKind
	base, step, mask uint64
}

var unknown = absVal{kind: absUnknown}

func known(v uint64) absVal { return absVal{kind: absKnown, base: v} }

// affine normalises (base + j·step) & mask: a zero step is a known value.
func affine(base, step, mask uint64) absVal {
	if step&mask == 0 {
		return known(base & mask)
	}
	return absVal{absAffine, base & mask, step & mask, mask}
}

// lowMask reports whether m is 2^w - 1 for some w.
func lowMask(m uint64) bool { return m&(m+1) == 0 }

// masked is x & m. An affine value stays affine under a mask that keeps all
// its bits or cuts it to fewer low bits, which is arithmetic modulo a
// smaller power of two.
func masked(x absVal, m uint64) absVal {
	switch x.kind {
	case absKnown:
		return known(x.base & m)
	case absAffine:
		if m&x.mask == x.mask {
			return x
		}
		if lowMask(m) && m&x.mask == m {
			return affine(x.base, x.step, m)
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

// affReg is one register Advance moves.
type affReg struct {
	slot       uint32
	step, mask uint64
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
	// aff are the moving registers of the stretch found; horizon is the
	// first cycle a comparison in the cone flips, or forever.
	aff     []affReg
	horizon uint64
	// left is how much of the stretch Advance may still apply.
	left uint64
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

// spread adds the readers of signal s to the cone.
func (cf *closedForm) spread(p *Program, s uint32) {
	for _, f := range p.Fanout[s] {
		cf.cone[f.Seg>>6] |= 1 << (f.Seg & 63)
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
// with every input held at its current value, Advance can apply in closed
// form — ^uint64(0) when only an input can move the model, 0 when the
// analysis cannot tell. It reads the state a Tick left and changes nothing.
func (v *VM) Quiet() uint64 {
	cf := v.cf
	if cf == nil {
		cf = newClosedForm(v.p)
		v.cf = cf
	}
	cf.aff = cf.aff[:0]
	cf.horizon = forever
	k := v.quiet(cf)
	for _, s := range cf.touched {
		cf.ab[s] = absVal{}
	}
	cf.touched = cf.touched[:0]
	clear(cf.cone)
	cf.left = k
	return k
}

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
				cf.put(uint32(sq.Dst), absVal{absAffine, cur, step, sq.Mask}, p.NSig)
				cf.seq[w] |= 1 << (j & 63)
				cf.spread(p, uint32(sq.Dst))
			}
		}
	}
	for w := range v.memw {
		cf.memw[w] |= v.memw[w]
	}
	// The combinational cone, in levelised order: a segment reading an
	// affine wire joins the walk after the one that produced it.
	for w := range cf.comb {
		for cf.comb[w] != 0 {
			b := bits.TrailingZeros64(cf.comb[w])
			cf.comb[w] &^= 1 << b
			sg := &p.CombSegs[w<<6+b]
			v.absRun(cf, p.Comb[sg.Start:sg.End])
			switch r := cf.ab[sg.Dst]; r.kind {
			case absKnown:
				if r.base != v.regs[sg.Dst] {
					return 0
				}
				cf.ab[sg.Dst] = absVal{}
			case absAffine:
				cf.spread(p, uint32(sg.Dst))
			default:
				return 0
			}
		}
	}
	for _, o := range p.Outputs {
		if cf.ab[o].kind != absHeld {
			return 0
		}
	}
	for w, m := range cf.seq {
		for ; m != 0; m &= m - 1 {
			sq := &p.Seqs[w<<6+bits.TrailingZeros64(m)]
			v.absRun(cf, sq.Code)
			r := cf.get(v.regs, sq.Out)
			if seed := cf.ab[sq.Dst]; seed.kind == absAffine {
				if r != affine(seed.base+seed.step, seed.step, seed.mask) {
					return 0
				}
			} else if r.kind != absKnown || r.base != v.regs[sq.Dst] {
				return 0
			}
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
	if len(cf.aff) == 0 || cf.horizon == forever {
		return forever
	}
	// Cycles 1..horizon-1 run on comparisons that have not flipped yet.
	return cf.horizon - 1
}

// Advance implements rtl.ClosedForm: it applies n cycles of the stretch the
// last Quiet found, n no more than what is left of it — each moving register
// takes n steps at once and the logic reading them is settled — leaving the
// VM as n Ticks with the inputs held would have, up to segments woken that
// will recompute what they hold.
func (v *VM) Advance(n uint64) {
	cf := v.cf
	if cf == nil || n > cf.left {
		panic(fmt.Sprintf("rtlc: Advance(%d) beyond the quiet stretch", n))
	}
	if cf.left != forever {
		cf.left -= n
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
		return unknown
	case OpSelect:
		if a.kind != absKnown {
			return unknown
		}
		src := in.C
		if t := v.p.Tables[in.B]; a.base < uint64(len(t)) {
			src = t[a.base]
		}
		return masked(cf.get(v.regs, src), in.Mask)
	case OpMux:
		return v.pick(cf, in, cf.compare(OpNe, a, known(0)), in.B, in.C)
	case OpMuxEq, OpMuxNe, OpMuxLt, OpMuxGe:
		return v.pick(cf, in, cf.compare(muxCmp[in.Op], a, cf.get(v.regs, in.B)), in.C, in.D)
	}
	b := cf.get(v.regs, in.B)
	if a.kind == absKnown && b.kind == absKnown {
		return v.fold(in, a.base, b.base)
	}
	switch in.Op {
	case OpAdd:
		if a.kind == absAffine && b.kind == absKnown {
			return plus(a, b.base, in.Mask)
		}
		if a.kind == absKnown && b.kind == absAffine {
			return plus(b, a.base, in.Mask)
		}
	case OpSub:
		if a.kind == absAffine && b.kind == absKnown {
			return plus(a, -b.base, in.Mask)
		}
		if a.kind == absKnown && b.kind == absAffine {
			return plus(affine(-b.base, -b.step, b.mask), a.base, in.Mask)
		}
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return cf.compare(in.Op, a, b)
	}
	return unknown
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
	if cond.kind != absKnown {
		return unknown
	}
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
// affine and the other known its value is the one it has now, and the cycle
// it first changes, or the affine side first wraps, bounds the horizon.
func (cf *closedForm) compare(op Op, a, b absVal) absVal {
	switch {
	case a.kind == absKnown && b.kind == absKnown:
		return known(b2u(cmp(op, a.base, b.base)))
	case a.kind == absAffine && b.kind == absKnown:
		return cf.flip(op, a, b.base, true)
	case a.kind == absKnown && b.kind == absAffine:
		return cf.flip(op, b, a.base, false)
	}
	return unknown
}

// flip compares affine x with k (x on the left when left is set), lowers the
// horizon to the first cycle j >= 1 the result differs from cycle 0's, or to
// the first cycle x wraps, and returns cycle 0's result.
func (cf *closedForm) flip(op Op, x absVal, k uint64, left bool) absVal {
	pred := func(val uint64) bool {
		if left {
			return cmp(op, val, k)
		}
		return cmp(op, k, val)
	}
	// Until it wraps, x moves monotonically: up by s, or down by d.
	up := x.step <= x.mask>>1
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
		// True at one point of the walk at most.
		var j uint64
		switch {
		case k == x.base:
			j = 1
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
