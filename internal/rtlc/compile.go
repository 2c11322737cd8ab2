package rtlc

import (
	"fmt"
	"math/bits"

	"gem5rtl/internal/rtl"
)

// The compiler lowers the levelised rtl.Circuit IR to a Program in one
// demand-driven pass with the optimizations applied online, then a cleanup
// pass:
//
//   - constant folding: any instruction whose register operands all hold
//     pool constants is executed at compile time by the same interpreter
//     that runs at simulation time (exec), so folded results can never
//     diverge from runtime semantics — including the division-by-zero and
//     shift-overflow corner cases.
//   - copy propagation: signal reads resolve through a per-segment alias
//     table to the register that currently holds the value (a temp, another
//     signal slot, or a pool constant), and provably-redundant masking
//     copies are elided using a conservative per-register value-width bound.
//   - common-subexpression elimination: per-segment value numbering over
//     canonicalised instructions (commutative operands sorted). It is sound
//     because a segment is SSA-like — every signal has a single driver, the
//     comb pass runs in levelised order, and memories are constant within a
//     segment.
//   - mux/compare fusion: (a==b) ? t : f and the <, >=, !=, <=, > variants
//     collapse into single OpMux* instructions; !cond muxes swap arms instead
//     of negating.
//   - select fusion: a chain (sel==K0) ? a0 : (sel==K1) ? a1 : ... : d over
//     one selector and small literal keys — a register-file read mux —
//     becomes one OpSelect indexing a dense table of arm registers.
//   - dead-code elimination: a backward liveness sweep per segment drops
//     instructions whose results reach no signal store or port output (for
//     example compares subsumed by a fused mux). Signal stores themselves
//     are never dead: every signal is architecturally observable through
//     Peek, VCD dumps and checkpoints.
//
// Code is emitted in segments — one per combinational assignment, one per
// sequential next-state function, one per memory write port — and no
// temporary lives across a segment boundary: value numbering carries over
// from one combinational assignment to the next only where the value sits in
// a signal slot or the constant pool. A segment therefore depends on exactly
// the signal slots and memories its own instructions read, which is what the
// fan-out tables record (fanout) and what lets the VM run any segment on its
// own.
//
// Finally the virtual register space is compacted: the constant pool keeps
// only constants the optimized code still references, and each segment's
// temporaries are renumbered into one shared scratch region.

// Virtual register space layout during compilation; finalize() renumbers
// into the dense [signals | constants | temps] file.
const (
	tempVBase  = 1 << 28
	constVBase = 1 << 30
)

// vnKey identifies an instruction for value numbering: opcode, immediates,
// operands and mask — everything but the destination.
type vnKey struct {
	op     Op
	wa, wb uint8
	a, b   uint32
	c, d   uint32
	mask   uint64
}

type compiler struct {
	c    *rtl.Circuit
	nsig int

	// Constant pool under construction (virtual ids; compacted later).
	constIdx map[uint64]uint32
	consts   []uint64

	// Global copy-propagation facts: comb-driven signals proven constant.
	constWire map[rtl.SigID]uint32

	// Per-segment state.
	code   []Inst
	vn     map[vnKey]uint32
	sigVal map[rtl.SigID]uint32

	// OpSelect lookup tables, indexed by Inst.B.
	tabs [][]uint32

	// Provable value-width bound per temp register (signals and constants
	// are derived on the fly). Used to elide masking that cannot change the
	// value — conservative, since Const values and memory init words may
	// carry bits above their declared width, which the reference evaluator
	// propagates raw until the next mask.
	tempW map[uint32]int

	nTempV uint32

	// fresh tracks whether the most recently returned value register was
	// produced by the instruction just emitted (and not a CSE hit), which
	// makes it eligible for store retargeting in root().
	fresh    bool
	freshKey vnKey
}

// Compile validates and lowers a circuit to an optimized Program. The
// resulting program is bit-exact against the rtl reference evaluator by
// construction; see the package tests and FuzzEngines for the enforcement.
func Compile(c *rtl.Circuit) (*Program, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	order, err := c.CombOrder()
	if err != nil {
		return nil, err
	}
	if len(c.Signals) >= tempVBase {
		return nil, fmt.Errorf("rtlc: circuit %q has too many signals (%d)", c.Name, len(c.Signals))
	}
	cc := &compiler{
		c:         c,
		nsig:      len(c.Signals),
		constIdx:  map[uint64]uint32{},
		constWire: map[rtl.SigID]uint32{},
		tempW:     map[uint32]int{},
		nTempV:    tempVBase,
	}
	p := &Program{NSig: cc.nsig}

	// Combinational pass: one segment per assignment in levelised order,
	// each storing into its signal's architectural slot.
	cc.beginSegment()
	combCode := make([][]Inst, 0, len(order))
	for _, idx := range order {
		a := &c.Combs[idx]
		cc.nextComb()
		cc.combRoot(a.Src, a.Dst)
		combCode = append(combCode, cc.code)
		p.CombSegs = append(p.CombSegs, CombSeg{Dst: a.Dst})
	}

	// Sequential next-state functions: one segment each.
	for i := range c.Seqs {
		sq := &c.Seqs[i]
		cc.beginSegment()
		out := cc.port(sq.Next, rtl.Mask(c.Signals[sq.Dst].Width))
		p.Seqs = append(p.Seqs, SeqProg{Dst: sq.Dst, Out: out, Code: cc.code})
	}

	// Memory write ports: enable and address are raw expression values,
	// data is masked to the memory width — exactly the reference's capture.
	for i := range c.MemWrites {
		w := &c.MemWrites[i]
		mem := &c.Mems[w.Mem]
		cc.beginSegment()
		en := cc.port(w.En, ^uint64(0))
		addr := cc.port(w.Addr, ^uint64(0))
		data := cc.port(w.Data, rtl.Mask(mem.Width))
		p.MemWs = append(p.MemWs, MemWProg{
			Mem: w.Mem, Depth: mem.Depth, Mask: rtl.Mask(mem.Width),
			Code: cc.code, En: en, Addr: addr, Data: data,
		})
	}

	for i, s := range c.Signals {
		if s.Kind == rtl.SigInput {
			p.Inputs = append(p.Inputs, rtl.SigID(i))
		}
	}

	cc.finalize(p, combCode)
	p.Tables = cc.tabs
	p.fanout(len(c.Mems))
	return p, nil
}

func (cc *compiler) beginSegment() {
	cc.code = nil
	cc.vn = map[vnKey]uint32{}
	cc.sigVal = map[rtl.SigID]uint32{}
	cc.fresh = false
}

// nextComb starts the next combinational assignment's segment. Facts whose
// value sits in a signal slot or the constant pool carry over — they hold
// whichever segments run — while anything held in a temporary is dropped: the
// VM may run this segment without the one that computed the temporary.
func (cc *compiler) nextComb() {
	cc.code = nil
	cc.fresh = false
	isTemp := func(r uint32) bool { return r >= tempVBase && r < constVBase }
	for k, r := range cc.vn {
		if isTemp(r) {
			delete(cc.vn, k)
		}
	}
	for s, r := range cc.sigVal {
		if isTemp(r) {
			// combRoot stored the temporary's value to the slot unchanged.
			cc.sigVal[s] = uint32(s)
		}
	}
}

func (cc *compiler) newTempV() uint32 {
	r := cc.nTempV
	cc.nTempV++
	return r
}

func (cc *compiler) constReg(v uint64) uint32 {
	if r, ok := cc.constIdx[v]; ok {
		return r
	}
	r := constVBase + uint32(len(cc.consts))
	cc.consts = append(cc.consts, v)
	cc.constIdx[v] = r
	return r
}

// constVal reports whether r is a pool constant, and its value.
func (cc *compiler) constVal(r uint32) (uint64, bool) {
	if r >= constVBase {
		return cc.consts[r-constVBase], true
	}
	return 0, false
}

// widthOf returns a provable upper bound on the bit width of the value held
// in register r.
func (cc *compiler) widthOf(r uint32) int {
	switch {
	case r >= constVBase:
		return bits.Len64(cc.consts[r-constVBase])
	case r >= tempVBase:
		return cc.tempW[r]
	default:
		return cc.c.Signals[r].Width
	}
}

// resultWidth bounds the width of the value an instruction produces.
func (cc *compiler) resultWidth(in *Inst) int {
	switch in.Op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpSLt, OpSLe, OpSGt, OpSGe,
		OpLAnd, OpLOr, OpRedXor, OpIndex:
		return 1
	case OpShlOr:
		w := cc.widthOf(in.A) + int(in.WA)
		if bw := cc.widthOf(in.B); bw > w {
			w = bw
		}
		if w > 64 {
			w = 64
		}
		return w
	default:
		return bits.Len64(in.Mask)
	}
}

// commutative reports whether the opcode's A/B operands may be swapped.
func commutative(op Op) bool {
	switch op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpEq, OpNe, OpLAnd, OpLOr,
		OpMuxEq, OpMuxNe:
		return true
	}
	return false
}

// tryFold executes in at compile time when every register operand is a pool
// constant, using the runtime interpreter itself so fold and execution can
// never disagree. OpMemRead is excluded (memory contents are runtime state),
// as is OpSelect (selectChain leaves constant selectors to the mux folder).
func (cc *compiler) tryFold(in Inst) (uint32, bool) {
	if in.Op == OpMemRead || in.Op == OpSelect {
		return 0, false
	}
	var vals [4]uint64
	n := 0
	ok := true
	(&in).eachSrc(nil, func(r *uint32) {
		if !ok {
			return
		}
		v, isC := cc.constVal(*r)
		if !isC {
			ok = false
			return
		}
		vals[n] = v
		*r = uint32(n)
		n++
	})
	if !ok {
		return 0, false
	}
	regs := [5]uint64{vals[0], vals[1], vals[2], vals[3], 0}
	in.Dst = 4
	one := [1]Inst{in}
	exec(one[:], regs[:], nil, nil)
	return cc.constReg(regs[4]), true
}

// emit appends an instruction after canonicalisation, folding and value
// numbering, and returns the register holding its result.
func (cc *compiler) emit(in Inst) uint32 {
	if commutative(in.Op) && in.A > in.B {
		in.A, in.B = in.B, in.A
	}
	if r, ok := cc.tryFold(in); ok {
		cc.fresh = false
		return r
	}
	key := vnKey{in.Op, in.WA, in.WB, in.A, in.B, in.C, in.D, in.Mask}
	if r, ok := cc.vn[key]; ok {
		cc.fresh = false
		return r
	}
	dst := cc.newTempV()
	in.Dst = dst
	cc.code = append(cc.code, in)
	cc.vn[key] = dst
	cc.tempW[dst] = cc.resultWidth(&in)
	cc.fresh = true
	cc.freshKey = key
	return dst
}

// resolve returns the register currently holding signal s's value: an alias
// established earlier in this segment, a proven-constant wire, or the
// signal's own slot.
func (cc *compiler) resolve(s rtl.SigID) uint32 {
	if r, ok := cc.sigVal[s]; ok {
		return r
	}
	if r, ok := cc.constWire[s]; ok {
		return r
	}
	return uint32(s)
}

// coerce returns a register holding r's value masked with mask, eliding the
// copy when the mask provably cannot change the value.
func (cc *compiler) coerce(r uint32, mask uint64) uint32 {
	if v, ok := cc.constVal(r); ok {
		if v&mask == v {
			return r
		}
		cc.fresh = false
		return cc.constReg(v & mask)
	}
	if cc.widthOf(r) <= bits.Len64(mask) {
		return r
	}
	return cc.emit(Inst{Op: OpCopy, A: r, Mask: mask})
}

// port lowers a port expression (sequential next-state, memory-write enable/
// address/data) and returns the register holding its value under mask.
func (cc *compiler) port(e rtl.Expr, mask uint64) uint32 {
	return cc.coerce(cc.expr(e), mask)
}

// combRoot lowers one combinational assignment, storing into the signal's
// architectural slot. Where possible the producing instruction is retargeted
// to write the slot directly (with the destination mask folded in) instead
// of going through a temp plus copy.
func (cc *compiler) combRoot(e rtl.Expr, dst rtl.SigID) {
	dstW := cc.c.Signals[dst].Width
	dmask := rtl.Mask(dstW)
	slot := uint32(dst)
	r := cc.expr(e)

	if v, ok := cc.constVal(r); ok {
		cc.code = append(cc.code, Inst{Op: OpCopy, Dst: slot, A: r, Mask: dmask})
		cr := cc.constReg(v & dmask)
		cc.constWire[dst] = cr
		cc.sigVal[dst] = cr
		return
	}
	if cc.fresh {
		last := &cc.code[len(cc.code)-1]
		if last.Dst == r && (opUsesMask(last.Op) || cc.widthOf(r) <= dstW) {
			if combined := last.Mask & dmask; !opUsesMask(last.Op) || combined == last.Mask {
				// The store mask cannot change the value, so the slot
				// still holds the expression's value for CSE reuse.
				cc.vn[cc.freshKey] = slot
			} else {
				// Narrowing store: the slot no longer carries the full
				// expression value, so retire the value-number entry.
				delete(cc.vn, cc.freshKey)
			}
			if opUsesMask(last.Op) {
				last.Mask &= dmask
			}
			last.Dst = slot
			cc.sigVal[dst] = slot
			cc.fresh = false
			return
		}
	}
	cc.code = append(cc.code, Inst{Op: OpCopy, Dst: slot, A: r, Mask: dmask})
	if cc.widthOf(r) <= dstW {
		cc.sigVal[dst] = r
	} else {
		cc.sigVal[dst] = slot
	}
	cc.fresh = false
}

// expr lowers an expression tree, returning the register holding its value.
func (cc *compiler) expr(e rtl.Expr) uint32 {
	switch v := e.(type) {
	case *rtl.Const:
		cc.fresh = false
		return cc.constReg(v.Val)
	case *rtl.Ref:
		cc.fresh = false
		return cc.resolve(v.Sig)
	case *rtl.Unary:
		return cc.unary(v)
	case *rtl.Binary:
		return cc.binary(v)
	case *rtl.Mux:
		return cc.mux(v)
	case *rtl.Slice:
		x := cc.expr(v.X)
		mask := rtl.Mask(v.Hi - v.Lo + 1)
		if v.Lo == 0 {
			return cc.coerce(x, mask)
		}
		return cc.emit(Inst{Op: OpShrC, A: x, WA: uint8(v.Lo), Mask: mask})
	case *rtl.Index:
		x := cc.expr(v.X)
		b := cc.expr(v.Bit)
		w := v.X.Width()
		if bv, ok := cc.constVal(b); ok {
			// Constant bit select: out-of-range reads zero, in-range
			// lowers to a constant shift.
			if bv >= uint64(w) {
				return cc.constReg(0)
			}
			return cc.emit(Inst{Op: OpShrC, A: x, WA: uint8(bv), Mask: 1})
		}
		return cc.emit(Inst{Op: OpIndex, A: x, B: b, WA: uint8(w)})
	case *rtl.Concat:
		// acc = acc<<w | part, left to right — the first iteration's
		// 0<<w|part collapses to the part itself.
		var acc uint32
		for i, part := range v.Parts {
			pr := cc.expr(part)
			if i == 0 {
				acc = pr
				continue
			}
			acc = cc.emit(Inst{Op: OpShlOr, A: acc, B: pr, WA: uint8(part.Width())})
		}
		return acc
	case *rtl.MemRead:
		a := cc.expr(v.Addr)
		// Reads are raw (Mask all-ones): the reference masks memory
		// words only at the enclosing store, and init words may legally
		// carry bits above the declared width.
		return cc.emit(Inst{Op: OpMemRead, A: a, B: uint32(v.Mem), Mask: ^uint64(0)})
	}
	panic(fmt.Sprintf("rtlc: lower of unknown node %T", e))
}

func (cc *compiler) unary(v *rtl.Unary) uint32 {
	x := cc.expr(v.X)
	switch v.Op {
	case rtl.UnNot:
		return cc.emit(Inst{Op: OpNot, A: x, Mask: rtl.Mask(v.W)})
	case rtl.UnNeg:
		return cc.emit(Inst{Op: OpNeg, A: x, Mask: rtl.Mask(v.W)})
	case rtl.UnLNot:
		return cc.emit(Inst{Op: OpEq, A: x, B: cc.constReg(0)})
	case rtl.UnRedAnd:
		return cc.emit(Inst{Op: OpEq, A: x, B: cc.constReg(rtl.Mask(v.X.Width()))})
	case rtl.UnRedOr:
		return cc.emit(Inst{Op: OpNe, A: x, B: cc.constReg(0)})
	case rtl.UnRedXor:
		return cc.emit(Inst{Op: OpRedXor, A: x})
	}
	panic(fmt.Sprintf("rtlc: unknown unary op %d", v.Op))
}

func (cc *compiler) binary(v *rtl.Binary) uint32 {
	x := cc.expr(v.X)
	y := cc.expr(v.Y)
	mask := rtl.Mask(v.W)
	simple := func(op Op) uint32 {
		return cc.emit(Inst{Op: op, A: x, B: y, Mask: mask})
	}
	switch v.Op {
	case rtl.OpAdd:
		return simple(OpAdd)
	case rtl.OpSub:
		return simple(OpSub)
	case rtl.OpMul:
		return simple(OpMul)
	case rtl.OpDiv:
		return simple(OpDiv)
	case rtl.OpMod:
		return simple(OpMod)
	case rtl.OpAnd:
		return simple(OpAnd)
	case rtl.OpOr:
		return simple(OpOr)
	case rtl.OpXor:
		return simple(OpXor)
	case rtl.OpShl:
		return simple(OpShl)
	case rtl.OpShr:
		return simple(OpShr)
	case rtl.OpSra:
		return cc.emit(Inst{Op: OpSra, A: x, B: y, WA: uint8(64 - v.X.Width()), Mask: mask})
	case rtl.OpEq:
		return simple(OpEq)
	case rtl.OpNe:
		return simple(OpNe)
	case rtl.OpLt:
		return simple(OpLt)
	case rtl.OpLe:
		return simple(OpLe)
	case rtl.OpGt:
		return simple(OpGt)
	case rtl.OpGe:
		return simple(OpGe)
	case rtl.OpSLt, rtl.OpSLe, rtl.OpSGt, rtl.OpSGe:
		op := map[rtl.Op]Op{
			rtl.OpSLt: OpSLt, rtl.OpSLe: OpSLe, rtl.OpSGt: OpSGt, rtl.OpSGe: OpSGe,
		}[v.Op]
		return cc.emit(Inst{
			Op: op, A: x, B: y,
			WA: uint8(64 - v.X.Width()), WB: uint8(64 - v.Y.Width()),
		})
	case rtl.OpLAnd:
		return simple(OpLAnd)
	case rtl.OpLOr:
		return simple(OpLOr)
	}
	panic(fmt.Sprintf("rtlc: unknown binary op %d", v.Op))
}

// Select fusion bounds: a chain becomes an OpSelect from selectMinArms cases
// up (below that the fused compare muxes are as good), and only while its
// keys stay under selectMaxKey, which bounds the dense table.
const (
	selectMinArms = 3
	selectMaxKey  = 1 << 10
)

// eqLiteral matches cond against x == K with K a literal on either side.
func eqLiteral(cond rtl.Expr) (x rtl.Expr, k uint64, ok bool) {
	b, isBin := cond.(*rtl.Binary)
	if !isBin || b.Op != rtl.OpEq {
		return nil, 0, false
	}
	if c, isC := b.Y.(*rtl.Const); isC {
		return b.X, c.Val, true
	}
	if c, isC := b.X.(*rtl.Const); isC {
		return b.Y, c.Val, true
	}
	return nil, 0, false
}

// selectChain lowers a chain (sel==K0) ? a0 : (sel==K1) ? a1 : ... : rest —
// every level comparing the same selector register against a small literal,
// every level of one width so one mask serves all arms — to a single
// OpSelect. The first level that breaks the pattern is the default arm. It
// reports false, having emitted nothing but dead code, when v heads no such
// chain.
func (cc *compiler) selectChain(v *rtl.Mux) (uint32, bool) {
	x, _, ok := eqLiteral(v.Cond)
	if !ok {
		return 0, false
	}
	sel := cc.expr(x)
	if _, isC := cc.constVal(sel); isC {
		return 0, false
	}
	type selArm struct {
		key uint64
		e   rtl.Expr
	}
	var arms []selArm
	var rest rtl.Expr = v
	for {
		node, isMux := rest.(*rtl.Mux)
		if !isMux || node.W != v.W {
			break
		}
		nx, k, ok := eqLiteral(node.Cond)
		if !ok || k >= selectMaxKey || cc.expr(nx) != sel {
			break
		}
		arms = append(arms, selArm{k, node.T})
		rest = node.F
	}
	if len(arms) < selectMinArms {
		return 0, false
	}
	def := cc.expr(rest)
	size := uint64(0)
	for _, a := range arms {
		if a.key >= size {
			size = a.key + 1
		}
	}
	tab := make([]uint32, size)
	set := make([]bool, size)
	for i := range tab {
		tab[i] = def
	}
	for _, a := range arms {
		// First match wins, as in the chain.
		if r := cc.expr(a.e); !set[a.key] {
			tab[a.key], set[a.key] = r, true
		}
	}
	cc.tabs = append(cc.tabs, tab)
	return cc.emit(Inst{Op: OpSelect, A: sel, B: uint32(len(cc.tabs) - 1), C: def, Mask: rtl.Mask(v.W)}), true
}

func (cc *compiler) mux(v *rtl.Mux) uint32 {
	if r, ok := cc.selectChain(v); ok {
		return r
	}
	cond, t, f := v.Cond, v.T, v.F
	// !cond muxes swap arms instead of materialising the negation.
	for {
		ln, ok := cond.(*rtl.Unary)
		if !ok || ln.Op != rtl.UnLNot {
			break
		}
		cond = ln.X
		t, f = f, t
	}
	mask := rtl.Mask(v.W)
	condR := cc.expr(cond)
	if cv, ok := cc.constVal(condR); ok {
		arm := t
		if cv == 0 {
			arm = f
		}
		return cc.coerce(cc.expr(arm), mask)
	}
	tR := cc.expr(t)
	fR := cc.expr(f)
	// Compare fusion: a cond that is itself an unsigned compare collapses
	// with the select into one instruction. The standalone compare emitted
	// while lowering condR above becomes dead and is swept by DCE unless
	// something else still uses it.
	if b, ok := cond.(*rtl.Binary); ok {
		var op Op
		x, y := b.X, b.Y
		switch b.Op {
		case rtl.OpEq:
			op = OpMuxEq
		case rtl.OpNe:
			op = OpMuxNe
		case rtl.OpLt:
			op = OpMuxLt
		case rtl.OpGe:
			op = OpMuxGe
		case rtl.OpLe: // a<=b ⇔ b>=a
			op, x, y = OpMuxGe, b.Y, b.X
		case rtl.OpGt: // a>b ⇔ b<a
			op, x, y = OpMuxLt, b.Y, b.X
		}
		if op != 0 {
			xr := cc.expr(x)
			yr := cc.expr(y)
			return cc.emit(Inst{Op: op, A: xr, B: yr, C: tR, D: fR, Mask: mask})
		}
	}
	return cc.emit(Inst{Op: OpMux, A: condR, B: tR, C: fR, Mask: mask})
}

// segment is one straight-line code region plus the registers that must
// survive it (port outputs); comb stores to signal slots are implicit roots.
type segment struct {
	code *[]Inst
	outs []*uint32
}

// finalize runs dead-code elimination per segment, renumbers the virtual
// register space into the dense [signals | constants | temps] file, and lays
// the combinational segments (comb, in levelised order) out back to back in
// p.Comb.
func (cc *compiler) finalize(p *Program, comb [][]Inst) {
	var segs []segment
	for i := range comb {
		segs = append(segs, segment{code: &comb[i]})
	}
	for i := range p.Seqs {
		segs = append(segs, segment{code: &p.Seqs[i].Code, outs: []*uint32{&p.Seqs[i].Out}})
	}
	for i := range p.MemWs {
		w := &p.MemWs[i]
		segs = append(segs, segment{code: &w.Code, outs: []*uint32{&w.En, &w.Addr, &w.Data}})
	}

	// Backward liveness DCE within each segment.
	nsig := uint32(cc.nsig)
	for _, sg := range segs {
		live := map[uint32]bool{}
		for _, out := range sg.outs {
			live[*out] = true
		}
		code := *sg.code
		kept := make([]Inst, 0, len(code))
		for i := len(code) - 1; i >= 0; i-- {
			in := code[i]
			if in.Dst >= nsig && !live[in.Dst] {
				continue
			}
			(&in).eachSrc(cc.tabs, func(r *uint32) { live[*r] = true })
			kept = append(kept, in)
		}
		for i, j := 0, len(kept)-1; i < j; i, j = i+1, j-1 {
			kept[i], kept[j] = kept[j], kept[i]
		}
		*sg.code = kept
	}

	// Compact the constant pool to the constants the optimized code still
	// references, in deterministic first-use order.
	constMap := map[uint32]uint32{}
	noteConst := func(r uint32) {
		if r >= constVBase {
			if _, ok := constMap[r]; !ok {
				constMap[r] = nsig + uint32(len(p.Consts))
				p.Consts = append(p.Consts, cc.consts[r-constVBase])
			}
		}
	}
	for _, sg := range segs {
		code := *sg.code
		for i := range code {
			(&code[i]).eachSrc(cc.tabs, func(r *uint32) { noteConst(*r) })
		}
		for _, out := range sg.outs {
			noteConst(*out)
		}
	}
	p.NConst = len(p.Consts)

	// Renumber temps per segment into one shared scratch region.
	tempBase := nsig + uint32(p.NConst)
	maxTemp := 0
	for _, sg := range segs {
		tempMap := map[uint32]uint32{}
		remap := func(r *uint32) {
			switch {
			case *r >= constVBase:
				*r = constMap[*r]
			case *r >= tempVBase:
				t, ok := tempMap[*r]
				if !ok {
					panic("rtlc: temp used before definition")
				}
				*r = t
			}
		}
		code := *sg.code
		for i := range code {
			in := &code[i]
			in.eachSrc(cc.tabs, remap)
			if in.Dst >= tempVBase {
				t, ok := tempMap[in.Dst]
				if !ok {
					t = tempBase + uint32(len(tempMap))
					tempMap[in.Dst] = t
				}
				in.Dst = t
			}
		}
		for _, out := range sg.outs {
			remap(out)
		}
		if len(tempMap) > maxTemp {
			maxTemp = len(tempMap)
		}
	}
	p.NTemp = maxTemp

	for i := range comb {
		p.CombSegs[i].Start = len(p.Comb)
		p.Comb = append(p.Comb, comb[i]...)
		p.CombSegs[i].End = len(p.Comb)
	}
}

// readBits returns the bits of the signal in operand r that instruction in
// observes: a constant slice reads only its field, anything else the whole
// word.
func readBits(in *Inst, r *uint32) uint64 {
	if r == &in.A {
		switch in.Op {
		case OpCopy:
			return in.Mask
		case OpShrC:
			return in.Mask << in.WA
		}
	}
	return ^uint64(0)
}

// fanout derives the activity space and the fan-out tables from the finished
// code: a segment is a reader of exactly the signal slots and memories its
// own instructions (and port registers) name.
func (p *Program) fanout(nmem int) {
	align := func(n int) int { return (n + 63) &^ 63 }
	p.SeqBase = align(len(p.CombSegs))
	p.MemBase = p.SeqBase + align(len(p.Seqs))
	p.NSeg = p.MemBase + align(nmem)
	p.Fanout = make([][]Fan, p.NSig)
	p.MemFanout = make([][]Fan, nmem)

	add := func(fans *[]Fan, seg uint32, bits uint64) {
		for i := range *fans {
			if (*fans)[i].Seg == seg {
				(*fans)[i].Bits |= bits
				return
			}
		}
		*fans = append(*fans, Fan{Bits: bits, Seg: seg})
	}
	reads := func(seg int, code []Inst, outs ...uint32) {
		for i := range code {
			in := &code[i]
			in.eachSrc(p.Tables, func(r *uint32) {
				if int(*r) < p.NSig {
					add(&p.Fanout[*r], uint32(seg), readBits(in, r))
				}
			})
			if in.Op == OpMemRead {
				add(&p.MemFanout[in.B], uint32(seg), ^uint64(0))
			}
		}
		for _, r := range outs {
			if int(r) < p.NSig {
				add(&p.Fanout[r], uint32(seg), ^uint64(0))
			}
		}
	}
	for i, sg := range p.CombSegs {
		reads(i, p.Comb[sg.Start:sg.End])
	}
	for i := range p.Seqs {
		reads(p.SeqBase+i, p.Seqs[i].Code, p.Seqs[i].Out)
	}
	for i := range p.MemWs {
		w := &p.MemWs[i]
		reads(p.MemBase+int(w.Mem), w.Code, w.En, w.Addr, w.Data)
	}
}
