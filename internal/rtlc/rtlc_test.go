package rtlc_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gem5rtl/internal/conform"
	"gem5rtl/internal/pmu"
	"gem5rtl/internal/rtl"
	"gem5rtl/internal/rtlc"
)

// allOpsCircuit exercises every IR node kind and documented edge case:
// division by zero, shifts past 64, out-of-range dynamic index and memory
// reads, signed compares of mixed widths, fused and unfused muxes, concat,
// slices, reductions, multiple write ports on one memory, an init word wider
// than its memory copied word-to-word through a write port.
func allOpsCircuit(t testing.TB) *rtl.Circuit {
	t.Helper()
	b := rtl.NewBuilder("allops")
	a := b.Input("a", 8)
	bi := b.Input("b", 8)
	ci := b.Input("c", 16)
	d := b.Input("d", 1)
	en := b.Input("en", 1)
	ra, rb, rc, rd, ren := b.Ref(a), b.Ref(bi), b.Ref(ci), b.Ref(d), b.Ref(en)

	mem := b.Mem("m", 16, 8)
	b.MemInit(mem, []uint64{0xdead, 0xbeef, 3, 4, 5, 0xffff, 7})

	w := func(name string, e rtl.Expr) rtl.Expr {
		id := b.Wire(name, e.Width())
		b.Assign(id, e)
		return b.Ref(id)
	}

	sum := w("sum", rtl.Add(ra, rb))
	dif := w("dif", rtl.Sub(ra, rb))
	prod := w("prod", rtl.MulE(ra, rb))
	w("quo", rtl.DivE(ra, rb)) // rb == 0 must yield all-ones
	w("rem", rtl.ModE(ra, rb))
	andv := w("andv", rtl.AndE(ra, rb))
	orv := w("orv", rtl.OrE(ra, rb))
	xorv := w("xorv", rtl.XorE(ra, rb))
	shl := w("shlv", rtl.Shl(rc, rb)) // rb >= 64 must yield zero
	shr := w("shrv", rtl.Shr(rc, rb))
	w("srav", rtl.Sra(rc, rb))
	w("eqv", rtl.Eq(ra, rb))
	w("nev", rtl.Ne(ra, rb))
	w("ltv", rtl.Lt(ra, rb))
	w("lev", rtl.Le(ra, rb))
	w("gtv", rtl.Gt(ra, rb))
	w("gev", rtl.Ge(ra, rb))
	w("sltv", rtl.SLt(ra, rc)) // mixed operand widths
	w("landv", rtl.LAnd(ra, rb))
	w("lorv", rtl.LOr(ra, rb))
	w("notv", rtl.Not(rc))
	w("negv", rtl.Neg(rc))
	w("lnotv", rtl.LNot(ra))
	w("redav", rtl.RedAnd(rc))
	w("redov", rtl.RedOr(rc))
	w("redxv", rtl.RedXor(rc))
	w("mux1", rtl.MuxE(rd, ra, rb))
	w("muxeq", rtl.MuxE(rtl.Eq(ra, rtl.C(3, 8)), sum, dif))
	w("muxne", rtl.MuxE(rtl.Ne(ra, rb), ra, rb))
	w("muxlt", rtl.MuxE(rtl.Lt(ra, rb), prod, xorv))
	w("muxle", rtl.MuxE(rtl.Le(ra, rb), andv, orv))
	w("muxgt", rtl.MuxE(rtl.Gt(ra, rb), shl, shr))
	w("muxln", rtl.MuxE(rtl.LNot(rd), ra, rb))
	w("slv", rtl.SliceE(rc, 11, 4))
	w("bitv", rtl.Bit(rc, 7))
	w("idxv", rtl.IndexE(rc, ra)) // ra >= 16 must yield zero
	w("catv", rtl.Cat(rtl.SliceE(ra, 3, 0), rtl.SliceE(rb, 3, 0), rtl.Bit(rc, 0)))
	mrd := w("mrdv", rtl.MemRd(mem, ra, 16)) // ra >= 8 must yield zero
	w("csum", rtl.Add(rtl.C(5, 8), rtl.C(7, 8)))
	w("dupe", rtl.Add(ra, rb)) // CSE against sum

	cnt := b.Reg("cnt", 16, 0)
	b.Seq(cnt, rtl.MuxE(ren, rtl.Add(b.Ref(cnt), rtl.C(1, 16)), b.Ref(cnt)))
	acc := b.Reg("acc", 16, 0x1234)
	b.Seq(acc, rtl.XorE(b.Ref(acc), mrd))
	shreg := b.Reg("shreg", 8, 1)
	b.Seq(shreg, rtl.Cat(rtl.SliceE(b.Ref(shreg), 6, 0), rtl.Bit(rc, 3)))

	// A port copying a raw read of a word that carries a ninth bit: the store
	// must mask it to the memory width.
	wide := b.Mem("wide", 8, 2)
	b.MemInit(wide, []uint64{0x1a5})
	b.MemWr(wide, rtl.C(1, 1), rtl.MemRd(wide, rtl.C(0, 1), 8), ren)
	// Two write ports on one memory: last-writer-wins ordering must hold.
	b.MemWr(mem, rtl.SliceE(ra, 2, 0), rc, ren)
	b.MemWr(mem, rtl.SliceE(rb, 2, 0), rtl.Not(rc), rtl.Bit(ra, 0))

	out := b.Output("out", 16)
	b.Assign(out, rtl.XorE(rtl.Resize(sum, 16), rtl.Add(b.Ref(cnt), b.Ref(acc))))

	c, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return c
}

func compileBoth(t testing.TB, c *rtl.Circuit) (mr, mb *rtl.Model) {
	t.Helper()
	mr, err := rtl.Compile(c)
	if err != nil {
		t.Fatalf("reference compile: %v", err)
	}
	mb, err = rtlc.NewModel(c)
	if err != nil {
		t.Fatalf("bytecode compile: %v", err)
	}
	return mr, mb
}

func compareState(t testing.TB, c *rtl.Circuit, mr, mb *rtl.Model, tag string) {
	t.Helper()
	for i := range c.Signals {
		if gr, gb := mr.PeekID(rtl.SigID(i)), mb.PeekID(rtl.SigID(i)); gr != gb {
			t.Fatalf("%s: signal %q: reference %#x, bytecode %#x", tag, c.Signals[i].Name, gr, gb)
		}
	}
	for mi := range c.Mems {
		for a := 0; a < c.Mems[mi].Depth; a++ {
			if gr, gb := mr.PeekMem(rtl.MemID(mi), a), mb.PeekMem(rtl.MemID(mi), a); gr != gb {
				t.Fatalf("%s: mem %q[%d]: reference %#x, bytecode %#x", tag, c.Mems[mi].Name, a, gr, gb)
			}
		}
	}
	if mr.Cycle() != mb.Cycle() {
		t.Fatalf("%s: cycle: reference %d, bytecode %d", tag, mr.Cycle(), mb.Cycle())
	}
}

// driveAllOps produces the step-s stimulus, hitting the divide-by-zero,
// oversized-shift and out-of-range edges on a regular cadence.
func driveAllOps(m *rtl.Model, rng *rand.Rand, s int) {
	av, bv, cv := rng.Uint64(), rng.Uint64(), rng.Uint64()
	switch s % 5 {
	case 1:
		bv = 0 // div/mod by zero
	case 2:
		bv = 200 // shift >= 64
	case 3:
		av = 0xff // index/memread out of range
	}
	m.SetInput("a", av)
	m.SetInput("b", bv)
	m.SetInput("c", cv)
	m.SetInput("d", uint64(s>>1)&1)
	m.SetInput("en", uint64(s)&1)
}

func TestEnginesDispatchIdentical(t *testing.T) {
	c := allOpsCircuit(t)
	mr, mb := compileBoth(t, c)
	compareState(t, c, mr, mb, "reset")
	rngR := rand.New(rand.NewSource(42))
	rngB := rand.New(rand.NewSource(42))
	for s := 0; s < 300; s++ {
		driveAllOps(mr, rngR, s)
		driveAllOps(mb, rngB, s)
		mr.Tick()
		mb.Tick()
		compareState(t, c, mr, mb, fmt.Sprintf("step %d", s))
	}
}

func countOps(code []rtlc.Inst, op rtlc.Op) int {
	n := 0
	for i := range code {
		if code[i].Op == op {
			n++
		}
	}
	return n
}

func TestOptimizationConstFold(t *testing.T) {
	b := rtl.NewBuilder("fold")
	o := b.Output("o", 8)
	b.Assign(o, rtl.Add(rtl.MulE(rtl.C(3, 8), rtl.C(5, 8)), rtl.C(2, 8)))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := rtlc.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Comb) != 1 || p.Comb[0].Op != rtlc.OpCopy {
		t.Fatalf("constant expression not folded to one copy:\n%s", p.Disasm())
	}
	if p.NTemp != 0 {
		t.Fatalf("folded program uses %d temps:\n%s", p.NTemp, p.Disasm())
	}
	mr, mb := compileBoth(t, c)
	if got := mb.Peek("o"); got != 17 || mr.Peek("o") != got {
		t.Fatalf("o = %d (reference %d), want 17", got, mr.Peek("o"))
	}
}

func TestOptimizationCSEAndRetarget(t *testing.T) {
	b := rtl.NewBuilder("cse")
	a := b.Input("a", 8)
	bb := b.Input("b", 8)
	x := b.Wire("x", 8)
	y := b.Wire("y", 8)
	z := b.Wire("z", 8)
	b.Assign(x, rtl.Add(b.Ref(a), b.Ref(bb)))
	b.Assign(y, rtl.Add(b.Ref(a), b.Ref(bb))) // identical expression
	b.Assign(z, rtl.Add(b.Ref(bb), b.Ref(a))) // commutative variant
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := rtlc.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if n := countOps(p.Comb, rtlc.OpAdd); n != 1 {
		t.Fatalf("CSE kept %d adds, want 1:\n%s", n, p.Disasm())
	}
	// The single add should have been retargeted to a signal slot directly,
	// so the program needs no temporaries at all.
	if p.NTemp != 0 {
		t.Fatalf("retargeting left %d temps:\n%s", p.NTemp, p.Disasm())
	}
}

func TestOptimizationMuxFusion(t *testing.T) {
	b := rtl.NewBuilder("fuse")
	a := b.Input("a", 8)
	bb := b.Input("b", 8)
	o := b.Output("o", 8)
	b.Assign(o, rtl.MuxE(rtl.Eq(b.Ref(a), rtl.C(3, 8)), b.Ref(a), b.Ref(bb)))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := rtlc.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if n := countOps(p.Comb, rtlc.OpMuxEq); n != 1 {
		t.Fatalf("mux/compare not fused:\n%s", p.Disasm())
	}
	// The standalone compare must have been swept as dead code.
	if n := countOps(p.Comb, rtlc.OpEq); n != 0 {
		t.Fatalf("fused compare left standalone OpEq:\n%s", p.Disasm())
	}
}

func TestDirtySetSkipsQuietRegisters(t *testing.T) {
	b := rtl.NewBuilder("gate")
	en := b.Input("en", 1)
	cnt := b.Reg("cnt", 16, 0)
	b.Seq(cnt, rtl.MuxE(b.Ref(en), rtl.Add(b.Ref(cnt), rtl.C(1, 16)), b.Ref(cnt)))
	o := b.Output("o", 16)
	b.Assign(o, b.Ref(cnt))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mr, mb := compileBoth(t, c)

	// Active phase: the counter changes every cycle, so nothing is skipped.
	mr.SetInput("en", 1)
	mb.SetInput("en", 1)
	for i := 0; i < 10; i++ {
		mr.Tick()
		mb.Tick()
	}
	if got := mb.SeqSkips(); got != 0 {
		t.Fatalf("active counter was skipped %d times", got)
	}
	// Quiet phase: after the enable-low edge settles, every evaluation is
	// provably redundant and must be skipped.
	mr.SetInput("en", 0)
	mb.SetInput("en", 0)
	for i := 0; i < 10; i++ {
		mr.Tick()
		mb.Tick()
	}
	if got := mb.SeqSkips(); got < 8 {
		t.Fatalf("quiet counter skipped only %d times, want >= 8", got)
	}
	compareState(t, c, mr, mb, "after quiet phase")
	if mr.Peek("o") != 10 {
		t.Fatalf("counter = %d, want 10", mr.Peek("o"))
	}

	// Fault injection must invalidate the gating so the flip propagates.
	skipsBefore := mb.SeqSkips()
	dr := mr.InjectStateFlip(3)
	db := mb.InjectStateFlip(3)
	if dr != db {
		t.Fatalf("flip sites differ: %q vs %q", dr, db)
	}
	mr.Tick()
	mb.Tick()
	compareState(t, c, mr, mb, "after flip")
	if mb.SeqSkips() != skipsBefore {
		t.Fatal("tick after fault injection was skipped")
	}
	if mr.SeqSkips() != 0 {
		t.Fatalf("reference reports %d skips, want 0", mr.SeqSkips())
	}
}

func TestCrossEngineCheckpoint(t *testing.T) {
	c := allOpsCircuit(t)
	run := func(m *rtl.Model, rng *rand.Rand, from, to int) {
		for s := from; s < to; s++ {
			driveAllOps(m, rng, s)
			m.Tick()
		}
	}
	for _, dir := range []struct {
		name       string
		save, load func(*rtl.Circuit) (*rtl.Model, error)
	}{
		{"closure-to-bytecode", rtl.Compile, rtlc.NewModel},
		{"bytecode-to-closure", rtlc.NewModel, rtl.Compile},
	} {
		t.Run(dir.name, func(t *testing.T) {
			src, err := dir.save(c)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			run(src, rng, 0, 40)
			buf := conform.Save(t, src)
			dst, err := dir.load(c)
			if err != nil {
				t.Fatal(err)
			}
			if err := conform.Load(buf, dst); err != nil {
				t.Fatalf("cross-engine restore: %v", err)
			}
			compareState(t, c, src, dst, "restore")
			// Both engines must continue bit-identically from the restored
			// state under identical stimulus.
			rngA := rand.New(rand.NewSource(9))
			rngB := rand.New(rand.NewSource(9))
			for s := 0; s < 40; s++ {
				driveAllOps(src, rngA, s)
				driveAllOps(dst, rngB, s)
				src.Tick()
				dst.Tick()
				compareState(t, c, src, dst, fmt.Sprintf("post-restore step %d", s))
			}
		})
	}
}

func TestVCDByteIdentical(t *testing.T) {
	c := allOpsCircuit(t)
	mr, mb := compileBoth(t, c)
	var bufR, bufB bytes.Buffer
	mr.AttachVCD(&bufR, 1)
	mb.AttachVCD(&bufB, 1)
	rngR := rand.New(rand.NewSource(11))
	rngB := rand.New(rand.NewSource(11))
	for s := 0; s < 60; s++ {
		driveAllOps(mr, rngR, s)
		driveAllOps(mb, rngB, s)
		mr.Tick()
		mb.Tick()
	}
	if !bytes.Equal(bufR.Bytes(), bufB.Bytes()) {
		t.Fatalf("VCD output differs between engines (%d vs %d bytes)", bufR.Len(), bufB.Len())
	}
	if bufR.Len() == 0 {
		t.Fatal("VCD output empty")
	}
}

func TestFaultInjectionEquivalence(t *testing.T) {
	c := allOpsCircuit(t)
	mr, mb := compileBoth(t, c)
	if mr.StateBits() != mb.StateBits() {
		t.Fatalf("StateBits: %d vs %d", mr.StateBits(), mb.StateBits())
	}
	rngR := rand.New(rand.NewSource(5))
	rngB := rand.New(rand.NewSource(5))
	pickRng := rand.New(rand.NewSource(6))
	for s := 0; s < 120; s++ {
		driveAllOps(mr, rngR, s)
		driveAllOps(mb, rngB, s)
		mr.Tick()
		mb.Tick()
		if s%7 == 3 {
			pick := pickRng.Uint64()
			dr, db := mr.InjectStateFlip(pick), mb.InjectStateFlip(pick)
			if dr != db {
				t.Fatalf("step %d: flip sites differ: %q vs %q", s, dr, db)
			}
		}
		compareState(t, c, mr, mb, fmt.Sprintf("step %d", s))
	}
}

// TestTickAllocsPerRun enforces the zero-allocation discipline on the Tick
// hot path for both evaluators, matching the port/cache regression tests.
func TestTickAllocsPerRun(t *testing.T) {
	c := allOpsCircuit(t)
	for _, engine := range []struct {
		name  string
		build func(*rtl.Circuit) (*rtl.Model, error)
	}{
		{"closure", rtl.Compile},
		{"bytecode", rtlc.NewModel},
	} {
		t.Run(engine.name, func(t *testing.T) {
			m, err := engine.build(c)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			s := 0
			allocs := testing.AllocsPerRun(200, func() {
				driveAllOps(m, rng, s)
				s++
				m.Tick()
			})
			if allocs != 0 {
				t.Fatalf("Tick allocates %.1f times per cycle, want 0", allocs)
			}
		})
	}
}

// pmuVM compiles the 20-counter PMU to bytecode and returns a bare VM over
// it with a setter for its inputs, reset and with every event line enabled
// and the threshold armed on the cycle counter — the Table 2 configuration.
func pmuVM(t testing.TB) (*rtlc.VM, func(name string, v uint64)) {
	t.Helper()
	m, err := pmu.CompileModelEngine(pmu.NumCounters, rtl.EngineReference)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Circuit()
	p, err := rtlc.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := rtlc.NewVM(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	set := func(name string, v uint64) { vm.Vals()[c.SignalByName(name)] = v }
	set("rst", 1)
	vm.Tick()
	set("rst", 0)
	for _, wr := range [][2]uint64{
		{pmu.RegEnable, 0x3F}, {pmu.RegThreshSel, pmu.EvCycle}, {pmu.RegThreshVal, 10000},
	} {
		set("awvalid", 1)
		set("awaddr", wr[0])
		set("wdata", wr[1])
		vm.Tick()
	}
	set("awvalid", 0)
	return vm, set
}

// TestPMUTickInstructionCount pins what a PMU model cycle costs in executed
// bytecode instructions, the engine's host-independent unit of work: with
// only the cycle line high a tick runs the cycle counter's next-state
// program and the few wires that read it; with the commit lines toggling it
// adds the event register and the counters whose own event bit moved — not
// every counter, although every counter's program reads the event register.
func TestPMUTickInstructionCount(t *testing.T) {
	vm, set := pmuVM(t)
	perTick := func(events func(i int) uint64) uint64 {
		const warm, n = 8, 64
		var start uint64
		for i := 0; i < warm+n; i++ {
			if i == warm {
				start = vm.Executed()
			}
			set("events", events(i))
			vm.Tick()
		}
		return (vm.Executed() - start + n - 1) / n
	}
	const cycle = 1 << pmu.EvCycle
	idle := perTick(func(int) uint64 { return cycle })
	if idle > 60 {
		t.Errorf("idle tick executes %d instructions, want <= 60", idle)
	}
	// Two or four commits on alternate cycles: commit lines 2 and 3 toggle.
	busy := perTick(func(i int) uint64 { return cycle | 0x3 | uint64(i&1)*0xC })
	if busy > 110 {
		t.Errorf("busy tick executes %d instructions, want <= 110", busy)
	}
	t.Logf("instructions per tick: idle %d, busy %d", idle, busy)
}

// TestSelectFusion checks the table-select lowering against the reference
// evaluator over every selector value: a chain with a duplicate key (first
// match wins), a gap, and a selector wider than the largest key.
func TestSelectFusion(t *testing.T) {
	b := rtl.NewBuilder("sel")
	sel := b.Ref(b.Input("sel", 5))
	var arms []rtl.Expr
	for i := 0; i < 6; i++ {
		arms = append(arms, b.Ref(b.Input(fmt.Sprintf("a%d", i), 12)))
	}
	key := func(k uint64) rtl.Expr { return rtl.Eq(sel, rtl.C(k, 5)) }
	o := b.Output("o", 12)
	b.Assign(o, rtl.MuxE(key(0), arms[0],
		rtl.MuxE(key(3), arms[1],
			rtl.MuxE(rtl.Eq(rtl.C(1, 5), sel), arms[2], // literal on the left
				rtl.MuxE(key(3), arms[3], // shadowed by the earlier 3
					rtl.MuxE(key(9), arms[4], arms[5]))))))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := rtlc.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if n := countOps(p.Comb, rtlc.OpSelect); n != 1 || len(p.Comb) != 1 {
		t.Fatalf("chain not fused to one select:\n%s", p.Disasm())
	}
	mr, mb := compileBoth(t, c)
	for i := range arms {
		mr.SetInput(fmt.Sprintf("a%d", i), uint64(0x100+i))
		mb.SetInput(fmt.Sprintf("a%d", i), uint64(0x100+i))
	}
	for s := uint64(0); s < 32; s++ {
		mr.SetInput("sel", s)
		mb.SetInput("sel", s)
		mr.Eval()
		mb.Eval()
		compareState(t, c, mr, mb, fmt.Sprintf("sel %d", s))
	}
	if mb.Peek("o") != 0x105 {
		t.Fatalf("default arm: o = %#x, want 0x105", mb.Peek("o"))
	}
}

// TestValueChangeCutOff pins the activity rule at the wire: a wire that
// recomputes to the value it held wakes no reader, and a wire that goes
// X -> Y in the trailing settle and back to X in the next leading settle
// leaves every register what the reference says it is.
func TestValueChangeCutOff(t *testing.T) {
	b := rtl.NewBuilder("cut")
	a := b.Ref(b.Input("a", 8))
	flip := b.Ref(b.Input("flip", 1))
	tog := b.Reg("tog", 1, 0)
	b.Seq(tog, rtl.XorE(b.Ref(tog), flip))
	// hi only looks at a's top bit; w mixes register and input so that a
	// register flip and an input flip in the same cycle cancel.
	hi := b.Wire("hi", 1)
	b.Assign(hi, rtl.Bit(a, 7))
	w := b.Wire("w", 1)
	b.Assign(w, rtl.XorE(b.Ref(tog), rtl.Bit(a, 0)))
	acc := b.Reg("acc", 8, 0)
	b.Seq(acc, rtl.Add(b.Ref(acc), rtl.Resize(b.Ref(hi), 8)))
	cnt := b.Reg("cnt", 8, 0)
	b.Seq(cnt, rtl.Add(b.Ref(cnt), rtl.Resize(b.Ref(w), 8)))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := rtlc.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := rtlc.NewVM(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	mr := rtl.MustCompile(c)
	step := func(av, fv uint64) uint64 {
		before := vm.Executed()
		vm.Vals()[c.SignalByName("a")] = av
		vm.Vals()[c.SignalByName("flip")] = fv
		mr.SetInput("a", av)
		mr.SetInput("flip", fv)
		vm.Tick()
		mr.Tick()
		for i := range c.Signals {
			if got, want := vm.Vals()[i], mr.PeekID(rtl.SigID(i)); got != want {
				t.Fatalf("a=%#x flip=%d: signal %q = %#x, reference %#x", av, fv, c.Signals[i].Name, got, want)
			}
		}
		return vm.Executed() - before
	}
	step(0, 0)
	step(0, 0)
	if n := step(0, 0); n != 0 {
		t.Fatalf("steady state executes %d instructions, want 0", n)
	}
	// Bits 1..6 of a change: hi and w read bits 7 and 0 only, nothing wakes.
	if n := step(0x7e, 0); n != 0 {
		t.Fatalf("a change in unread bits executes %d instructions, want 0", n)
	}
	// tog flips at the edge, w goes 0 -> 1 in the trailing settle; the next
	// cycle's input flips a[0] and w goes back to 0 in the leading settle,
	// before any capture saw the 1.
	step(0x7e, 1)
	step(0x7f, 0)
	if got := vm.Vals()[c.SignalByName("cnt")]; got != 0 {
		t.Fatalf("cnt = %d after w went 0 -> 1 -> 0 between captures, want 0", got)
	}
	if n := step(0x7f, 0); n != 0 {
		t.Fatalf("settled again: tick executes %d instructions, want 0", n)
	}
}
