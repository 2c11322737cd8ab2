package rtlc_test

import (
	"fmt"
	"testing"

	"gem5rtl/internal/rtl"
	"gem5rtl/internal/rtlc"
)

// fz is a deterministic byte-stream reader for the fuzz circuit generator.
// Exhausted input reads as zero, so every byte slice maps to a well-defined
// circuit and stimulus.
type fz struct {
	data []byte
	pos  int
}

func (f *fz) b() byte {
	if f.pos >= len(f.data) {
		return 0
	}
	v := f.data[f.pos]
	f.pos++
	return v
}

func (f *fz) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(f.b())
	}
	return v
}

// genExpr derives an expression over the available signal pool from the byte
// stream. Depth is bounded; operand widths follow the builder's width rules
// by construction so generated circuits always validate.
func genExpr(f *fz, pool []rtl.Expr, mem rtl.MemID, memW int, hasMem bool, depth int) rtl.Expr {
	pick := func() rtl.Expr { return pool[int(f.b())%len(pool)] }
	if depth >= 2 {
		if f.b()&1 == 0 {
			return pick()
		}
		return rtl.C(f.u64(), 1+int(f.b()%64))
	}
	sub := func() rtl.Expr { return genExpr(f, pool, mem, memW, hasMem, depth+1) }
	switch f.b() % 33 {
	case 0:
		return rtl.C(f.u64(), 1+int(f.b()%64))
	case 1:
		return pick()
	case 2:
		return rtl.Add(sub(), sub())
	case 3:
		return rtl.Sub(sub(), sub())
	case 4:
		return rtl.MulE(sub(), sub())
	case 5:
		return rtl.DivE(sub(), sub())
	case 6:
		return rtl.ModE(sub(), sub())
	case 7:
		return rtl.AndE(sub(), sub())
	case 8:
		return rtl.OrE(sub(), sub())
	case 9:
		return rtl.XorE(sub(), sub())
	case 10:
		return rtl.Shl(sub(), sub())
	case 11:
		return rtl.Shr(sub(), sub())
	case 12:
		return rtl.Sra(sub(), sub())
	case 13:
		return rtl.Eq(sub(), sub())
	case 14:
		return rtl.Ne(sub(), sub())
	case 15:
		return rtl.Lt(sub(), sub())
	case 16:
		return rtl.Le(sub(), sub())
	case 17:
		return rtl.Gt(sub(), sub())
	case 18:
		return rtl.Ge(sub(), sub())
	case 19:
		return rtl.SLt(sub(), sub())
	case 20:
		return rtl.LAnd(sub(), sub())
	case 21:
		return rtl.LOr(sub(), sub())
	case 22:
		return rtl.Not(sub())
	case 23:
		return rtl.Neg(sub())
	case 24:
		return rtl.LNot(sub())
	case 25:
		return rtl.RedAnd(sub())
	case 26:
		switch f.b() % 2 {
		case 0:
			return rtl.RedOr(sub())
		default:
			return rtl.RedXor(sub())
		}
	case 27:
		return rtl.MuxE(sub(), sub(), sub())
	case 28:
		x := sub()
		hi := int(f.b()) % x.Width()
		lo := int(f.b()) % (hi + 1)
		return rtl.SliceE(x, hi, lo)
	case 29:
		return rtl.IndexE(sub(), sub())
	case 30:
		wa := 1 + int(f.b()%32)
		wb := 1 + int(f.b()%32)
		return rtl.Cat(rtl.Resize(sub(), wa), rtl.Resize(sub(), wb))
	case 31:
		if hasMem {
			return rtl.MemRd(mem, sub(), memW)
		}
		return pick()
	default:
		x := sub()
		return rtl.Bit(x, int(f.b())%x.Width())
	}
}

// genCircuit builds a random acyclic circuit from the byte stream: a few
// inputs, optionally one memory (with deliberately unmasked init words to
// exercise the raw-constant propagation edge), a chain of wires and
// registers over random expressions, random write ports, and one output.
func genCircuit(f *fz) (*rtl.Circuit, error) {
	b := rtl.NewBuilder("fuzz")
	var pool []rtl.Expr
	nin := 1 + int(f.b()%3)
	for i := 0; i < nin; i++ {
		pool = append(pool, b.Ref(b.Input(fmt.Sprintf("in%d", i), 1+int(f.b()%64))))
	}
	var mem rtl.MemID
	hasMem := f.b()&1 == 1
	memW := 0
	if hasMem {
		memW = 1 + int(f.b()%32)
		depth := 2 + int(f.b()%14)
		mem = b.Mem("m", memW, depth)
		ini := make([]uint64, 1+depth/2)
		for i := range ini {
			ini[i] = f.u64() // raw: may exceed the memory width on purpose
		}
		b.MemInit(mem, ini)
	}
	n := 3 + int(f.b()%10)
	for i := 0; i < n; i++ {
		e := genExpr(f, pool, mem, memW, hasMem, 0)
		if f.b()%3 == 2 {
			id := b.Reg(fmt.Sprintf("r%d", i), e.Width(), f.u64())
			b.Seq(id, e)
			pool = append(pool, b.Ref(id))
		} else {
			id := b.Wire(fmt.Sprintf("w%d", i), e.Width())
			b.Assign(id, e)
			pool = append(pool, b.Ref(id))
		}
	}
	if hasMem {
		for i := int(f.b() % 3); i > 0; i-- {
			b.MemWr(mem,
				genExpr(f, pool, mem, memW, hasMem, 1),
				rtl.Resize(genExpr(f, pool, mem, memW, hasMem, 1), memW),
				genExpr(f, pool, mem, memW, hasMem, 1))
		}
	}
	o := b.Output("out", 8)
	b.Assign(o, rtl.Resize(pool[len(pool)-1], 8))
	return b.Build()
}

// FuzzEngines is the differential fuzz target: for every generated circuit
// it runs the reference evaluator, the bytecode VM, and the iterative
// fixpoint evaluator in lockstep — including under fault-injection bit flips
// — and requires bit-identical signals, memories, and flip-site reports.
func FuzzEngines(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	seed := make([]byte, 256)
	s := uint64(0x9e3779b97f4a7c15)
	for i := range seed {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		seed[i] = byte(s)
	}
	f.Add(seed)
	f.Add(seed[3:190])
	f.Add([]byte{255, 0, 255, 0, 7, 7, 7, 7, 31, 31, 31, 31, 64, 64, 64, 64,
		200, 100, 50, 25, 12, 6, 3, 1, 0, 0, 0, 0, 255, 255, 255, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &fz{data: data}
		c, err := genCircuit(fr)
		if err != nil {
			t.Skip()
		}
		mr, errR := rtl.Compile(c)
		mb, errB := rtlc.NewModel(c)
		if (errR == nil) != (errB == nil) {
			t.Fatalf("engines disagree on compilability: reference=%v bytecode=%v", errR, errB)
		}
		if errR != nil {
			t.Skip()
		}
		var inputs []rtl.SigID
		for i := range c.Signals {
			if c.Signals[i].Kind == rtl.SigInput {
				inputs = append(inputs, rtl.SigID(i))
			}
		}
		check := func(tag string) {
			for i := range c.Signals {
				if gr, gb := mr.PeekID(rtl.SigID(i)), mb.PeekID(rtl.SigID(i)); gr != gb {
					t.Fatalf("%s: signal %q: reference %#x bytecode %#x", tag, c.Signals[i].Name, gr, gb)
				}
			}
			for mi := range c.Mems {
				for a := 0; a < c.Mems[mi].Depth; a++ {
					if gr, gb := mr.PeekMem(rtl.MemID(mi), a), mb.PeekMem(rtl.MemID(mi), a); gr != gb {
						t.Fatalf("%s: mem %q[%d]: reference %#x bytecode %#x", tag, c.Mems[mi].Name, a, gr, gb)
					}
				}
			}
		}
		check("reset")
		for step := 0; step < 24; step++ {
			for _, id := range inputs {
				v := fr.u64()
				mr.SetInputID(id, v)
				mb.SetInputID(id, v)
			}
			// Third evaluator: the iterative fixpoint settle must agree with
			// both levelised ones on the combinational state.
			mr.Eval()
			mb.Eval()
			mr.EvalIterative()
			check(fmt.Sprintf("eval step %d", step))
			mr.Tick()
			mb.Tick()
			if step%7 == 3 {
				pick := fr.u64()
				dr, db := mr.InjectStateFlip(pick), mb.InjectStateFlip(pick)
				if dr != db {
					t.Fatalf("step %d: flip sites differ: %q vs %q", step, dr, db)
				}
			}
			check(fmt.Sprintf("tick step %d", step))
		}
	})
}
