package rtl

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"gem5rtl/internal/conform"
)

// buildCounter returns an 8-bit counter with enable and synchronous clear.
func buildCounter(t testing.TB) *Model {
	b := NewBuilder("counter")
	en := b.Input("en", 1)
	clr := b.Input("clr", 1)
	count := b.Reg("count", 8, 0)
	out := b.Output("q", 8)
	b.Assign(out, b.Ref(count))
	next := MuxE(b.Ref(clr), C(0, 8),
		MuxE(b.Ref(en), Add(b.Ref(count), C(1, 8)), b.Ref(count)))
	b.Seq(count, next)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCounter(t *testing.T) {
	m := buildCounter(t)
	m.SetInput("en", 1)
	for i := 0; i < 10; i++ {
		m.Tick()
	}
	if got := m.Peek("q"); got != 10 {
		t.Fatalf("q = %d, want 10", got)
	}
	m.SetInput("en", 0)
	m.Tick()
	if got := m.Peek("q"); got != 10 {
		t.Fatalf("q advanced while disabled: %d", got)
	}
	m.SetInput("clr", 1)
	m.Tick()
	if got := m.Peek("q"); got != 0 {
		t.Fatalf("clear failed: q = %d", got)
	}
}

// TestLockstepReportsDivergence checks the differential harness itself: two
// models in step pass every comparison, and one wrong bit on either side is
// reported with the signal that holds it.
func TestLockstepReportsDivergence(t *testing.T) {
	var failures []string
	l := NewLockstep(buildCounter(t), func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	})
	l.SetInput("en", 1)
	l.Tick()
	l.Tick()
	if len(failures) != 0 || l.Peek("q") != 2 {
		t.Fatalf("models in step: q = %d, failures %q", l.Peek("q"), failures)
	}
	l.ref.vals[l.ref.c.SignalByName("count")] ^= 4
	l.Tick()
	if len(failures) == 0 || !strings.Contains(failures[0], `"count"`) {
		t.Fatalf("a flipped register bit went unreported: %q", failures)
	}
}

func TestCounterWraps(t *testing.T) {
	m := buildCounter(t)
	m.SetInput("en", 1)
	for i := 0; i < 260; i++ {
		m.Tick()
	}
	if got := m.Peek("q"); got != 4 {
		t.Fatalf("q = %d, want 4 (260 mod 256)", got)
	}
}

func TestResetRestoresInit(t *testing.T) {
	b := NewBuilder("r")
	r := b.Reg("state", 16, 0xBEEF)
	o := b.Output("o", 16)
	b.Assign(o, b.Ref(r))
	b.Seq(r, Add(b.Ref(r), C(1, 16)))
	m := MustCompile(mustBuild(t, b))
	m.Tick()
	m.Tick()
	if m.Peek("o") != 0xBEF1 {
		t.Fatalf("o = %#x", m.Peek("o"))
	}
	m.Reset()
	if m.Peek("o") != 0xBEEF || m.Cycle() != 0 {
		t.Fatalf("reset failed: o=%#x cycle=%d", m.Peek("o"), m.Cycle())
	}
}

func mustBuild(t testing.TB, b *Builder) *Circuit {
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCombChain(t *testing.T) {
	// y = ((a+b)*2)^0xF via chained wires declared out of order to exercise
	// levelisation.
	b := NewBuilder("chain")
	a := b.Input("a", 8)
	bb := b.Input("b", 8)
	y := b.Output("y", 8)
	w2 := b.Wire("w2", 8)
	w1 := b.Wire("w1", 8)
	b.Assign(y, XorE(b.Ref(w2), C(0xF, 8)))
	b.Assign(w2, MulE(b.Ref(w1), C(2, 8)))
	b.Assign(w1, Add(b.Ref(a), b.Ref(bb)))
	m := MustCompile(mustBuild(t, b))
	m.SetInput("a", 3)
	m.SetInput("b", 4)
	m.Eval()
	want := uint64(((3 + 4) * 2) ^ 0xF)
	if got := m.Peek("y"); got != want {
		t.Fatalf("y = %d, want %d", got, want)
	}
}

func TestCombLoopRejected(t *testing.T) {
	b := NewBuilder("loop")
	x := b.Wire("x", 1)
	y := b.Wire("y", 1)
	b.Assign(x, Not(b.Ref(y)))
	b.Assign(y, Not(b.Ref(x)))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(c); err == nil || !strings.Contains(err.Error(), "combinational loop") {
		t.Fatalf("comb loop not rejected: %v", err)
	}
}

func TestMultipleDriversRejected(t *testing.T) {
	b := NewBuilder("md")
	x := b.Wire("x", 1)
	b.Assign(x, C(0, 1))
	b.Assign(x, C(1, 1))
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "drivers") {
		t.Fatalf("multiple drivers not rejected: %v", err)
	}
}

func TestWidthMismatchRejected(t *testing.T) {
	b := NewBuilder("wm")
	x := b.Wire("x", 8)
	b.Assign(x, C(1, 4))
	if _, err := b.Build(); err == nil {
		t.Fatal("width mismatch not rejected")
	}
}

func TestMemoryReadWrite(t *testing.T) {
	b := NewBuilder("memtest")
	we := b.Input("we", 1)
	waddr := b.Input("waddr", 4)
	wdata := b.Input("wdata", 32)
	raddr := b.Input("raddr", 4)
	rdata := b.Output("rdata", 32)
	mem := b.Mem("m", 32, 16)
	b.MemWr(mem, b.Ref(waddr), b.Ref(wdata), b.Ref(we))
	b.Assign(rdata, MemRd(mem, b.Ref(raddr), 32))
	m := MustCompile(mustBuild(t, b))

	m.SetInput("we", 1)
	m.SetInput("waddr", 5)
	m.SetInput("wdata", 0xCAFE)
	m.Tick()
	m.SetInput("we", 0)
	m.SetInput("raddr", 5)
	m.Eval()
	if got := m.Peek("rdata"); got != 0xCAFE {
		t.Fatalf("rdata = %#x, want 0xCAFE", got)
	}
	// Read-during-write returns old value at the write tick (non-blocking).
	m.SetInput("we", 1)
	m.SetInput("waddr", 5)
	m.SetInput("wdata", 0xD00D)
	m.SetInput("raddr", 5)
	m.Eval()
	if got := m.Peek("rdata"); got != 0xCAFE {
		t.Fatalf("pre-edge rdata = %#x, want old value 0xCAFE", got)
	}
	m.Tick()
	if got := m.Peek("rdata"); got != 0xD00D {
		t.Fatalf("post-edge rdata = %#x, want 0xD00D", got)
	}
}

// TestTickZeroAllocs guards the reference evaluator's Tick against
// per-cycle allocation, including the memory-write capture buffer, which
// must be reused across cycles even when write ports fire.
func TestTickZeroAllocs(t *testing.T) {
	b := NewBuilder("alloc")
	we := b.Input("we", 1)
	waddr := b.Input("waddr", 4)
	wdata := b.Input("wdata", 32)
	cnt := b.Reg("cnt", 8, 0)
	b.Seq(cnt, Add(b.Ref(cnt), C(1, 8)))
	mem := b.Mem("m", 32, 16)
	b.MemWr(mem, b.Ref(waddr), b.Ref(wdata), b.Ref(we))
	out := b.Output("q", 32)
	b.Assign(out, MemRd(mem, SliceE(b.Ref(cnt), 3, 0), 32))
	m := MustCompile(mustBuild(t, b))
	m.SetInput("we", 1)
	i := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		i++
		m.SetInput("waddr", i&15)
		m.SetInput("wdata", i)
		m.Tick()
	})
	if allocs != 0 {
		t.Fatalf("Tick allocates %.1f times per cycle, want 0", allocs)
	}
}

func TestMemInit(t *testing.T) {
	b := NewBuilder("mi")
	ra := b.Input("ra", 2)
	rd := b.Output("rd", 8)
	mem := b.Mem("rom", 8, 4)
	b.MemInit(mem, []uint64{10, 20, 30, 40})
	b.Assign(rd, MemRd(mem, b.Ref(ra), 8))
	m := MustCompile(mustBuild(t, b))
	for i, want := range []uint64{10, 20, 30, 40} {
		m.SetInput("ra", uint64(i))
		m.Eval()
		if got := m.Peek("rd"); got != want {
			t.Fatalf("rom[%d] = %d, want %d", i, got, want)
		}
	}
	// Reset re-initialises.
	m.PokeMem(mem, 0, 99)
	m.Reset()
	m.SetInput("ra", 0)
	m.Eval()
	if got := m.Peek("rd"); got != 10 {
		t.Fatalf("after reset rom[0] = %d, want 10", got)
	}
}

func TestOperatorSemantics(t *testing.T) {
	// Evaluate a batch of operator expressions against Go reference results.
	cases := []struct {
		name string
		expr func(a, b Expr) Expr
		ref  func(a, b uint64) uint64 // 16-bit semantics
	}{
		{"add", Add, func(a, b uint64) uint64 { return (a + b) & 0xFFFF }},
		{"sub", Sub, func(a, b uint64) uint64 { return (a - b) & 0xFFFF }},
		{"mul", MulE, func(a, b uint64) uint64 { return (a * b) & 0xFFFF }},
		{"div", DivE, func(a, b uint64) uint64 {
			if b == 0 {
				return 0xFFFF
			}
			return a / b
		}},
		{"mod", ModE, func(a, b uint64) uint64 {
			if b == 0 {
				return a
			}
			return a % b
		}},
		{"and", AndE, func(a, b uint64) uint64 { return a & b }},
		{"or", OrE, func(a, b uint64) uint64 { return a | b }},
		{"xor", XorE, func(a, b uint64) uint64 { return a ^ b }},
		{"eq", Eq, func(a, b uint64) uint64 {
			if a == b {
				return 1
			}
			return 0
		}},
		{"lt", Lt, func(a, b uint64) uint64 {
			if a < b {
				return 1
			}
			return 0
		}},
		{"slt", SLt, func(a, b uint64) uint64 {
			if int16(a) < int16(b) {
				return 1
			}
			return 0
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder("op")
			a := b.Input("a", 16)
			bb := b.Input("b", 16)
			e := tc.expr(b.Ref(a), b.Ref(bb))
			y := b.Output("y", e.Width())
			b.Assign(y, e)
			m := MustCompile(mustBuild(t, b))
			f := func(av, bv uint16) bool {
				m.SetInput("a", uint64(av))
				m.SetInput("b", uint64(bv))
				m.Eval()
				return m.Peek("y") == tc.ref(uint64(av), uint64(bv))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestShiftsAndUnary(t *testing.T) {
	b := NewBuilder("sh")
	a := b.Input("a", 16)
	s := b.Input("s", 5)
	shl := b.Output("shl", 16)
	shr := b.Output("shr", 16)
	sra := b.Output("sra", 16)
	not := b.Output("not", 16)
	neg := b.Output("neg", 16)
	ra := b.Output("ra", 1)
	ro := b.Output("ro", 1)
	rx := b.Output("rx", 1)
	b.Assign(shl, Shl(b.Ref(a), b.Ref(s)))
	b.Assign(shr, Shr(b.Ref(a), b.Ref(s)))
	b.Assign(sra, Sra(b.Ref(a), b.Ref(s)))
	b.Assign(not, Not(b.Ref(a)))
	b.Assign(neg, Neg(b.Ref(a)))
	b.Assign(ra, RedAnd(b.Ref(a)))
	b.Assign(ro, RedOr(b.Ref(a)))
	b.Assign(rx, RedXor(b.Ref(a)))
	m := MustCompile(mustBuild(t, b))
	f := func(av uint16, sv uint8) bool {
		sh := uint64(sv % 20)
		m.SetInput("a", uint64(av))
		m.SetInput("s", sh)
		m.Eval()
		wantShl := uint64(0)
		wantShr := uint64(0)
		if sh < 16 {
			wantShl = (uint64(av) << sh) & 0xFFFF
			wantShr = uint64(av) >> sh
		} else if sh < 32 { // width-5 input allows up to 31
			wantShl = (uint64(av) << sh) & 0xFFFF
			wantShr = uint64(av) >> sh
		}
		wantSra := uint64(int64(int16(av))>>min64(sh, 63)) & 0xFFFF
		pop := 0
		for t := av; t != 0; t &= t - 1 {
			pop++
		}
		return m.Peek("shl") == wantShl &&
			m.Peek("shr") == wantShr &&
			m.Peek("sra") == wantSra &&
			m.Peek("not") == uint64(^av) &&
			m.Peek("neg") == uint64(-av) &&
			m.Peek("ra") == b2u(av == 0xFFFF) &&
			m.Peek("ro") == b2u(av != 0) &&
			m.Peek("rx") == uint64(pop%2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func TestSliceConcatIndex(t *testing.T) {
	b := NewBuilder("sc")
	a := b.Input("a", 16)
	i := b.Input("i", 4)
	hi := b.Output("hi", 8)
	lo := b.Output("lo", 8)
	swapped := b.Output("swapped", 16)
	bit := b.Output("bit", 1)
	rep := b.Output("rep", 4)
	b.Assign(hi, SliceE(b.Ref(a), 15, 8))
	b.Assign(lo, SliceE(b.Ref(a), 7, 0))
	b.Assign(swapped, Cat(SliceE(b.Ref(a), 7, 0), SliceE(b.Ref(a), 15, 8)))
	b.Assign(bit, IndexE(b.Ref(a), b.Ref(i)))
	b.Assign(rep, Cat(Bit(b.Ref(a), 0), Bit(b.Ref(a), 0), Bit(b.Ref(a), 0), Bit(b.Ref(a), 0)))
	m := MustCompile(mustBuild(t, b))
	f := func(av uint16, iv uint8) bool {
		m.SetInput("a", uint64(av))
		m.SetInput("i", uint64(iv%16))
		m.Eval()
		wantRep := uint64(0)
		if av&1 == 1 {
			wantRep = 0xF
		}
		return m.Peek("hi") == uint64(av>>8) &&
			m.Peek("lo") == uint64(av&0xFF) &&
			m.Peek("swapped") == uint64((av&0xFF)<<8|av>>8) &&
			m.Peek("bit") == uint64(av>>(iv%16))&1 &&
			m.Peek("rep") == wantRep
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLevelizedMatchesIterative(t *testing.T) {
	// Property: for a random-ish comb network the single-pass levelised Eval
	// must agree with fixed-point iteration.
	b := NewBuilder("net")
	a := b.Input("a", 8)
	bb := b.Input("b", 8)
	w := make([]SigID, 6)
	w[0] = b.Wire("w0", 8)
	w[1] = b.Wire("w1", 8)
	w[2] = b.Wire("w2", 8)
	w[3] = b.Wire("w3", 8)
	w[4] = b.Wire("w4", 8)
	w[5] = b.Wire("w5", 8)
	y := b.Output("y", 8)
	// Assign in an order that is NOT topological.
	b.Assign(w[5], XorE(b.Ref(w[4]), b.Ref(w[3])))
	b.Assign(w[4], Add(b.Ref(w[2]), b.Ref(w[1])))
	b.Assign(w[3], AndE(b.Ref(w[0]), b.Ref(bb)))
	b.Assign(w[2], OrE(b.Ref(w[0]), C(0x0F, 8)))
	b.Assign(w[1], Sub(b.Ref(a), b.Ref(w[0])))
	b.Assign(w[0], Add(b.Ref(a), b.Ref(bb)))
	b.Assign(y, b.Ref(w[5]))
	m := MustCompile(mustBuild(t, b))
	f := func(av, bv uint8) bool {
		m.SetInput("a", uint64(av))
		m.SetInput("b", uint64(bv))
		m.Eval()
		lev := m.Peek("y")
		// Scramble wires then iterate to fixed point.
		for _, id := range w {
			m.vals[id] = 0xAA
		}
		m.EvalIterative()
		return m.Peek("y") == lev
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVCDOutput(t *testing.T) {
	m := buildCounter(t)
	var buf bytes.Buffer
	v := m.AttachVCD(&buf, 1)
	m.SetInput("en", 1)
	for i := 0; i < 3; i++ {
		m.Tick()
	}
	v.Flush()
	out := buf.String()
	for _, want := range []string{"$timescale 1ns $end", "$var reg 8", "count", "$dumpvars", "#1", "#2", "#3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("VCD missing %q in:\n%s", want, out)
		}
	}
}

func TestVCDToggle(t *testing.T) {
	m := buildCounter(t)
	var buf bytes.Buffer
	v := m.AttachVCD(&buf, 1)
	m.SetInput("en", 1)
	m.Tick()
	v.Flush()
	sizeOn := buf.Len()
	v.SetEnabled(false)
	for i := 0; i < 100; i++ {
		m.Tick()
	}
	v.Flush()
	if buf.Len() != sizeOn {
		t.Fatal("VCD grew while disabled")
	}
	v.SetEnabled(true)
	m.Tick()
	v.Flush()
	if buf.Len() == sizeOn {
		t.Fatal("VCD did not resume after re-enable")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	m := buildCounter(t)
	m.SetInput("en", 1)
	for i := 0; i < 37; i++ {
		m.Tick()
	}
	buf := conform.Save(t, m)
	// Run further, then restore.
	for i := 0; i < 10; i++ {
		m.Tick()
	}
	if err := conform.Load(buf, m); err != nil {
		t.Fatal(err)
	}
	if m.Peek("q") != 37 || m.Cycle() != 37 {
		t.Fatalf("restore: q=%d cycle=%d, want 37/37", m.Peek("q"), m.Cycle())
	}
	m.Tick()
	if m.Peek("q") != 38 {
		t.Fatalf("post-restore tick: q=%d", m.Peek("q"))
	}
}

func TestCheckpointWrongCircuit(t *testing.T) {
	m1 := buildCounter(t)
	buf := conform.Save(t, m1)
	b := NewBuilder("other")
	r := b.Reg("r", 8, 0)
	o := b.Output("o", 8)
	b.Assign(o, b.Ref(r))
	b.Seq(r, b.Ref(r))
	m2 := MustCompile(mustBuild(t, b))
	if err := conform.Load(buf, m2); err == nil {
		t.Fatal("restore into different circuit succeeded")
	}
}

func TestCheckpointMemContents(t *testing.T) {
	b := NewBuilder("cm")
	we := b.Input("we", 1)
	wa := b.Input("wa", 4)
	wd := b.Input("wd", 16)
	ra := b.Input("ra", 4)
	rd := b.Output("rd", 16)
	mem := b.Mem("m", 16, 16)
	b.MemWr(mem, b.Ref(wa), b.Ref(wd), b.Ref(we))
	b.Assign(rd, MemRd(mem, b.Ref(ra), 16))
	m := MustCompile(mustBuild(t, b))
	m.SetInput("we", 1)
	m.SetInput("wa", 7)
	m.SetInput("wd", 1234)
	m.Tick()
	buf := conform.Save(t, m)
	m.Reset()
	if m.PeekMem(mem, 7) != 0 {
		t.Fatal("reset did not clear mem")
	}
	if err := conform.Load(buf, m); err != nil {
		t.Fatal(err)
	}
	if m.PeekMem(mem, 7) != 1234 {
		t.Fatalf("mem[7] = %d after restore", m.PeekMem(mem, 7))
	}
}

func TestSignExtend(t *testing.T) {
	if SignExtend(0x80, 8) != -128 {
		t.Fatalf("SignExtend(0x80,8) = %d", SignExtend(0x80, 8))
	}
	if SignExtend(0x7F, 8) != 127 {
		t.Fatalf("SignExtend(0x7F,8) = %d", SignExtend(0x7F, 8))
	}
	if SignExtend(0xFFFF, 16) != -1 {
		t.Fatal("SignExtend 16-bit all-ones")
	}
}

func TestMaskWidths(t *testing.T) {
	if Mask(1) != 1 || Mask(8) != 0xFF || Mask(64) != ^uint64(0) {
		t.Fatal("Mask wrong")
	}
}

func BenchmarkTickCounter(b *testing.B) {
	m := buildCounter(b)
	m.SetInput("en", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Tick()
	}
}

// BenchmarkAblationLevelizedVsIterative quantifies DESIGN.md §5.1: the
// levelised single-pass Eval vs naive fixed-point iteration.
func BenchmarkAblationLevelized(b *testing.B) {
	m := benchNet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SetInputID(0, uint64(i))
		m.Eval()
	}
}

func BenchmarkAblationIterative(b *testing.B) {
	m := benchNet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SetInputID(0, uint64(i))
		m.EvalIterative()
	}
}

// benchNet builds a deep comb chain declared in reverse order, the worst case
// for iterative evaluation.
func benchNet(tb testing.TB) *Model {
	b := NewBuilder("deep")
	in := b.Input("in", 32)
	const depth = 64
	ids := make([]SigID, depth)
	for i := 0; i < depth; i++ {
		ids[i] = b.Wire("w"+string(rune('A'+i%26))+string(rune('0'+i/26)), 32)
	}
	out := b.Output("out", 32)
	b.Assign(out, b.Ref(ids[depth-1]))
	for i := depth - 1; i > 0; i-- {
		b.Assign(ids[i], Add(b.Ref(ids[i-1]), C(uint64(i), 32)))
	}
	b.Assign(ids[0], XorE(b.Ref(in), C(0x5A5A5A5A, 32)))
	c, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return MustCompile(c)
}
