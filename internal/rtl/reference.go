package rtl

import "fmt"

// The reference evaluator. This file is the definition of what a Circuit
// means: eval gives every expression node its value, Tick gives a clock
// cycle its order — settle, capture with pre-edge values, commit, settle. It
// walks the expression trees as built, once per use, with no lowering,
// folding or scheduling; all it has in common with internal/rtlc is the
// levelised order (levelize), which EvalIterative checks against a fixed
// point. The VM is correct when it agrees with this file on every signal and
// memory word. Nothing outside tests runs it.
type reference struct {
	c     *Circuit
	vals  []uint64
	mems  [][]uint64
	order []int // indices into c.Combs in levelised order
	next  []uint64
	memw  []pendingMemWrite
	// all is every signal's bit: the reference tracks no changes, so its
	// change set names every signal and a VCD dump compares them all.
	all []uint64
}

// pendingMemWrite is a memory write captured with pre-edge values, applied
// at commit time (non-blocking semantics).
type pendingMemWrite struct {
	mem  MemID
	addr int
	data uint64
}

// newReference is the EngineBuilder of the reference evaluator; a
// combinational loop is rejected here, by levelisation.
func newReference(c *Circuit, mems [][]uint64) (Backend, error) {
	order, err := levelize(c)
	if err != nil {
		return nil, err
	}
	return &reference{
		c:     c,
		vals:  make([]uint64, len(c.Signals)),
		mems:  mems,
		order: order,
		next:  make([]uint64, len(c.Seqs)),
		memw:  make([]pendingMemWrite, 0, len(c.MemWrites)),
		all:   make([]uint64, (len(c.Signals)+63)/64),
	}, nil
}

func (r *reference) Vals() []uint64  { return r.vals }
func (r *reference) Invalidate()     {}
func (r *reference) Skipped() uint64 { return 0 }

func (r *reference) Changed() []uint64 {
	for i := range r.all {
		r.all[i] = ^uint64(0)
	}
	if n := len(r.c.Signals) & 63; n != 0 {
		r.all[len(r.all)-1] = 1<<n - 1
	}
	return r.all
}

func (r *reference) Eval() {
	for _, i := range r.order {
		a := &r.c.Combs[i]
		r.vals[a.Dst] = r.eval(a.Src) & Mask(r.c.Signals[a.Dst].Width)
	}
}

func (r *reference) Tick() {
	r.Eval()
	r.memw = r.memw[:0]
	for i := range r.c.MemWrites {
		w := &r.c.MemWrites[i]
		mem := &r.c.Mems[w.Mem]
		if r.eval(w.En) == 0 {
			continue
		}
		if addr := r.eval(w.Addr); addr < uint64(mem.Depth) {
			r.memw = append(r.memw, pendingMemWrite{w.Mem, int(addr), r.eval(w.Data) & Mask(mem.Width)})
		}
	}
	for i := range r.c.Seqs {
		s := &r.c.Seqs[i]
		r.next[i] = r.eval(s.Next) & Mask(r.c.Signals[s.Dst].Width)
	}
	for i := range r.c.Seqs {
		r.vals[r.c.Seqs[i].Dst] = r.next[i]
	}
	for _, w := range r.memw {
		r.mems[w.mem][w.addr] = w.data
	}
	r.Eval()
}

// eval is the meaning of an expression against the current signal values
// and memory contents.
func (r *reference) eval(e Expr) uint64 {
	switch v := e.(type) {
	case *Const:
		return v.Val
	case *Ref:
		return r.vals[v.Sig]
	case *Unary:
		x := r.eval(v.X)
		switch v.Op {
		case UnNot:
			return ^x & Mask(v.W)
		case UnNeg:
			return (-x) & Mask(v.W)
		case UnLNot:
			if x == 0 {
				return 1
			}
			return 0
		case UnRedAnd:
			if x == Mask(v.X.Width()) {
				return 1
			}
			return 0
		case UnRedOr:
			if x != 0 {
				return 1
			}
			return 0
		case UnRedXor:
			var p uint64
			for t := x; t != 0; t &= t - 1 {
				p ^= 1
			}
			return p
		}
	case *Binary:
		x := r.eval(v.X)
		y := r.eval(v.Y)
		mask := Mask(v.W)
		switch v.Op {
		case OpAdd:
			return (x + y) & mask
		case OpSub:
			return (x - y) & mask
		case OpMul:
			return (x * y) & mask
		case OpDiv:
			if y == 0 {
				return mask
			}
			return (x / y) & mask
		case OpMod:
			if y == 0 {
				return x & mask
			}
			return (x % y) & mask
		case OpAnd:
			return x & y & mask
		case OpOr:
			return (x | y) & mask
		case OpXor:
			return (x ^ y) & mask
		case OpShl:
			if y >= 64 {
				return 0
			}
			return (x << y) & mask
		case OpShr:
			if y >= 64 {
				return 0
			}
			return (x >> y) & mask
		case OpSra:
			sx := SignExtend(x, v.X.Width())
			if y >= 64 {
				y = 63
			}
			return uint64(sx>>y) & mask
		case OpEq:
			return b2u(x == y)
		case OpNe:
			return b2u(x != y)
		case OpLt:
			return b2u(x < y)
		case OpLe:
			return b2u(x <= y)
		case OpGt:
			return b2u(x > y)
		case OpGe:
			return b2u(x >= y)
		case OpSLt:
			return b2u(SignExtend(x, v.X.Width()) < SignExtend(y, v.Y.Width()))
		case OpSLe:
			return b2u(SignExtend(x, v.X.Width()) <= SignExtend(y, v.Y.Width()))
		case OpSGt:
			return b2u(SignExtend(x, v.X.Width()) > SignExtend(y, v.Y.Width()))
		case OpSGe:
			return b2u(SignExtend(x, v.X.Width()) >= SignExtend(y, v.Y.Width()))
		case OpLAnd:
			return b2u(x != 0 && y != 0)
		case OpLOr:
			return b2u(x != 0 || y != 0)
		}
	case *Mux:
		if r.eval(v.Cond) != 0 {
			return r.eval(v.T) & Mask(v.W)
		}
		return r.eval(v.F) & Mask(v.W)
	case *Slice:
		return (r.eval(v.X) >> uint(v.Lo)) & Mask(v.Hi-v.Lo+1)
	case *Index:
		bitPos := r.eval(v.Bit)
		if bitPos >= uint64(v.X.Width()) {
			return 0
		}
		return (r.eval(v.X) >> bitPos) & 1
	case *Concat:
		var acc uint64
		for _, p := range v.Parts {
			acc = acc<<uint(p.Width()) | r.eval(p)
		}
		return acc
	case *MemRead:
		addr := r.eval(v.Addr)
		words := r.mems[v.Mem]
		if addr >= uint64(len(words)) {
			return 0
		}
		return words[addr]
	}
	panic(fmt.Sprintf("rtl: eval of unknown node %T", e))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
