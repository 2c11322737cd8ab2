package rtlc_test

import (
	"fmt"
	"testing"

	"gem5rtl/internal/conform"
	"gem5rtl/internal/pmu"
	"gem5rtl/internal/rtl"
	"gem5rtl/internal/rtlc"
	"gem5rtl/internal/verilog"
)

// lockstepVM builds c on the VM beside the reference.
func lockstepVM(t testing.TB, c *rtl.Circuit) *rtl.Lockstep {
	t.Helper()
	m, err := rtlc.NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	return rtl.NewLockstep(m, t.Fatalf)
}

// TestPMUSleepsBetweenThresholds drives the PMU netlist as the Table 2 runs
// program it — every event line enabled, the threshold on the cycle counter
// — with only the cycle line high, and applies every stretch Quiet finds
// against the reference ticking each cycle. The stretches are what the
// netlist says they are: up to, not including, the cycle the compare on the
// selected counter flips, so the interrupt still comes from a real cycle.
// Both sides write a waveform, and the records of every stretch are the
// reference's.
func TestPMUSleepsBetweenThresholds(t *testing.T) {
	ref, err := pmu.CompileModelEngine(pmu.NumCounters, rtl.EngineReference)
	if err != nil {
		t.Fatal(err)
	}
	l := lockstepVM(t, ref.Circuit())
	l.AttachVCD()
	l.SetInput("rst", 1)
	l.Tick()
	l.SetInput("rst", 0)
	const thresh = 1000
	for _, wr := range [][2]uint64{
		{pmu.RegEnable, 0x3F}, {pmu.RegThreshSel, pmu.EvCycle}, {pmu.RegThreshVal, thresh},
	} {
		l.SetInput("awvalid", 1)
		l.SetInput("awaddr", wr[0])
		l.SetInput("wdata", wr[1])
		l.Tick()
	}
	l.SetInput("awvalid", 0)
	l.SetInput("events", 1<<pmu.EvCycle)
	var ran, applied, irqs uint64
	prevIrq := uint64(0)
	for ran+applied < 5*thresh {
		l.Tick()
		ran++
		if irq := l.Peek("irq"); irq != prevIrq {
			irqs += irq
			prevIrq = irq
		}
		if k := l.Quiet(rtl.Vary{}); k > 0 {
			if k == ^uint64(0) {
				t.Fatalf("after %d cycles: no end to the stretch with the threshold armed", ran+applied)
			}
			l.Advance(k, rtl.Vary{}, nil)
			applied += k
		}
	}
	t.Logf("%d cycles run, %d applied in closed form, %d interrupts", ran, applied, irqs)
	if irqs < 4 {
		t.Errorf("%d interrupts in %d cycles at threshold %d", irqs, ran+applied, thresh)
	}
	if applied*100 < (ran+applied)*99 {
		t.Errorf("only %d of %d cycles applied in closed form", applied, ran+applied)
	}
}

// TestPMUCountsWhileItSleeps drives the PMU netlist as the SoC does while
// the core works: the commit and miss lines change every cycle, the cycle
// line is held. With the threshold on the cycle counter the stretches are
// the held-input ones; with it on a commit counter the horizon is the worst
// case, every line set on every cycle. Each stretch is applied against the
// reference driven by a random event sequence, and with the threshold on a
// commit counter also by all lines set, which must reach the interrupt on
// the cycle after the stretch and not before. Each threshold runs twice, the
// second time with a waveform on both sides, whose stretches must write the
// reference's bytes.
func TestPMUCountsWhileItSleeps(t *testing.T) {
	ref, err := pmu.CompileModelEngine(pmu.NumCounters, rtl.EngineReference)
	if err != nil {
		t.Fatal(err)
	}
	c := ref.Circuit()
	events := rtl.SigID(-1)
	for i, sg := range c.Signals {
		if sg.Name == "events" {
			events = rtl.SigID(i)
		}
	}
	vary := rtl.Vary{In: events, Bits: 1<<(pmu.EvL1DMiss+1) - 1}
	rand := conform.NewRNG(1).Uint64
	for i, sel := range []uint64{pmu.EvCycle, pmu.EvCommit0, pmu.EvL1DMiss, pmu.EvCycle, pmu.EvCommit0, pmu.EvL1DMiss} {
		wave := i >= 3
		l := lockstepVM(t, c)
		if wave {
			l.AttachVCD()
		}
		l.SetInput("rst", 1)
		l.Tick()
		l.SetInput("rst", 0)
		const thresh = 1000
		for _, wr := range [][2]uint64{
			{pmu.RegEnable, 0x3F}, {pmu.RegThreshSel, sel}, {pmu.RegThreshVal, thresh},
		} {
			l.SetInput("awvalid", 1)
			l.SetInput("awaddr", wr[0])
			l.SetInput("wdata", wr[1])
			l.Tick()
		}
		l.SetInput("awvalid", 0)
		var ran, applied, stretches uint64
		for ran+applied < 20*thresh {
			l.SetInput("events", rand()&0x1F|1<<pmu.EvCycle)
			l.Tick()
			ran++
			k := l.Quiet(vary)
			if k == 0 {
				continue
			}
			if k == ^uint64(0) {
				t.Fatalf("threshold on line %d, after %d cycles: no end to the stretch", sel, ran+applied)
			}
			stretches++
			in := make([]uint64, k)
			worst := sel != pmu.EvCycle && stretches%2 == 0
			for j := range in {
				in[j] = rand()
				if worst {
					in[j] = ^uint64(0)
				}
			}
			l.Advance(k, vary, in)
			applied += k
			// The counter reaches the threshold on the next edge at the
			// latest (one later if the first cycle's line was not yet
			// recorded), and the registered interrupt follows it.
			for j := 0; worst && l.Peek("irq") == 0; j++ {
				if j == 3 {
					t.Fatalf("threshold on line %d: all lines set through a %d-cycle stretch, and no interrupt 3 cycles after it", sel, k)
				}
				l.SetInput("events", 0x1F|1<<pmu.EvCycle)
				l.Tick()
				ran++
			}
		}
		t.Logf("threshold on line %d, waveform %v: %d cycles run, %d applied in %d stretches", sel, wave, ran, applied, stretches)
		if applied*10 < (ran+applied)*9 {
			t.Errorf("threshold on line %d, waveform %v: only %d of %d cycles applied in closed form", sel, wave, applied, ran+applied)
		}
	}
}

// timerSrc is a netlist the analysis was not written for: a down-counter
// with a reload and a sticky fire flag set the cycle after it reaches one.
const timerSrc = `
module timer (
    input  wire clk,
    input  wire load,
    input  wire [15:0] period,
    output wire fire
);
  reg [15:0] left;
  reg fired;
  assign fire = fired;
  always @(posedge clk) begin
    if (load) begin
      left <= period;
      fired <= 1'b0;
    end else begin
      if (left != 16'd0) left <= left - 16'd1;
      if (left == 16'd1) fired <= 1'b1;
    end
  end
endmodule
`

// TestPMUPlanKinds pins how a traced stretch of the PMU as the Table 2 runs
// program it — every event line enabled, the threshold on the cycle counter,
// the commit and miss lines free to vary — moves each signal it moves, as the
// plan Advance hands the waveform writer says: the event input varies, its
// register is pipelined, the five counters of the varying lines count
// through it, the read mux copies the first of them (araddr is held at 0),
// and the cycle counter and the threshold mux it feeds are affine. Nothing
// else moves.
func TestPMUPlanKinds(t *testing.T) {
	ref, err := pmu.CompileModelEngine(pmu.NumCounters, rtl.EngineReference)
	if err != nil {
		t.Fatal(err)
	}
	c := ref.Circuit()
	m, err := rtlc.NewModel(c)
	if err != nil {
		t.Fatal(err)
	}
	m.SetInput("rst", 1)
	m.Tick()
	m.SetInput("rst", 0)
	for _, wr := range [][2]uint64{
		{pmu.RegEnable, 0x3F}, {pmu.RegThreshSel, pmu.EvCycle}, {pmu.RegThreshVal, 10000},
	} {
		m.SetInput("awvalid", 1)
		m.SetInput("awaddr", wr[0])
		m.SetInput("wdata", wr[1])
		m.Tick()
	}
	m.SetInput("awvalid", 0)
	m.SetInput("events", 0x1F|1<<pmu.EvCycle)
	m.Tick()
	m.Tick()
	cf := m.Backend().(rtl.ClosedForm)
	vary := rtl.Vary{In: m.InputID("events"), Bits: 1<<(pmu.EvL1DMiss+1) - 1}
	if k := cf.Quiet(vary, true); k == 0 {
		t.Fatal("traced Quiet = 0 on the programmed PMU")
	}
	got := map[string]string{}
	for _, mv := range cf.Plan() {
		kind := mv.Kind.String()
		switch mv.Kind {
		case rtl.MoveCopy:
			kind += " of " + c.Signals[mv.Src].Name
		case rtl.MoveCounted:
			for _, tm := range mv.Terms {
				kind += fmt.Sprintf(" %s[%d]", c.Signals[tm.Sig].Name, tm.Bit)
			}
		}
		got[c.Signals[mv.Sig].Name] = kind
	}
	want := map[string]string{
		"events": "varying",
		"ev_r":   "pipelined",
		"c0":     "counted ev_r[0]",
		"c1":     "counted ev_r[1]",
		"c2":     "counted ev_r[2]",
		"c3":     "counted ev_r[3]",
		"c4":     "counted ev_r[4]",
		"rmux":   "copy of c0",
		"c5":     "affine",
		"selcnt": "affine",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("plan kinds:\n got  %v\n want %v", got, want)
	}
}

// TestTracedStretchNeedsASource: a waveform can be written from the plan only
// where every moving signal's value is computable from a source the plan
// names. A wire that mixes two bits of a varying input (here their sum) is
// varying with no single source: the stretch is found without a writer and
// refused with one, and the ticked cycles then write the reference's bytes.
func TestTracedStretchNeedsASource(t *testing.T) {
	m, err := verilog.Compile(`
module mix (input wire clk, input wire [1:0] ev, output wire [7:0] o);
  reg [7:0] n;
  wire [1:0] s = ev[0] + ev[1];
  always @(posedge clk) n <= n + 8'd1;
  assign o = 8'd3;
endmodule
`, "mix", nil)
	if err != nil {
		t.Fatal(err)
	}
	vary := rtl.Vary{In: m.InputID("ev"), Bits: 3}
	m.Tick()
	if k := m.Quiet(vary); k == 0 {
		t.Fatal("untraced Quiet = 0: the stretch has no end")
	}
	l := lockstepVM(t, m.Circuit())
	l.AttachVCD()
	l.Tick()
	if k := l.Quiet(vary); k != 0 {
		t.Fatalf("traced Quiet = %d with a sourceless varying wire, want 0", k)
	}
	for j := uint64(0); j < 4; j++ {
		l.SetInput("ev", j)
		l.Tick()
	}
}

// TestWaveformStretchStartsInStep: a stretch writes only the records of what
// it moves, so under a writer it may start only where the waveform has
// recorded every value the model holds. An input driven and settled with
// Eval after a Tick is not recorded until the next Tick's dump: Quiet
// answers 0 there, and after that Tick the stretch writes the reference's
// bytes — its records in signal order, though the analysis meets the two
// counters, and the wire that follows one, in another, and the second piece
// of a stretch applied in two going on where the first ended.
func TestWaveformStretchStartsInStep(t *testing.T) {
	m, err := verilog.Compile(`
module drift (input wire clk, input wire [7:0] a, output wire [7:0] o);
  reg [7:0] lo;
  reg [7:0] hi;
  wire [7:0] w = a + 8'd1;
  wire [7:0] x = lo + 8'd2;
  always @(posedge clk) begin
    hi <= hi + 8'd3;
    lo <= lo + 8'd5;
  end
  assign o = 8'd5;
endmodule
`, "drift", nil)
	if err != nil {
		t.Fatal(err)
	}
	l := lockstepVM(t, m.Circuit())
	l.AttachVCD()
	l.Tick()
	l.Tick()
	l.SetInput("a", 7)
	l.Eval()
	if k := l.Quiet(rtl.Vary{}); k != 0 {
		t.Fatalf("Quiet = %d with a settled input the waveform has not recorded, want 0", k)
	}
	l.Tick()
	k := l.Quiet(rtl.Vary{})
	if k != ^uint64(0) {
		t.Fatalf("Quiet = %d after the Tick that recorded it, want no end", k)
	}
	// One stretch, applied in two pieces, as a settle between two events
	// does.
	l.Advance(300, rtl.Vary{}, nil)
	l.Advance(7, rtl.Vary{}, nil)
	l.Tick()
}

// TestClosedFormOnAnotherNetlist: the same analysis sleeps a timer — a
// decrementing register, equality and inequality compares — and ends each
// stretch one cycle before the compare that raises the output flips.
func TestClosedFormOnAnotherNetlist(t *testing.T) {
	c, err := verilog.Compile(timerSrc, "timer", nil)
	if err != nil {
		t.Fatal(err)
	}
	l := lockstepVM(t, c.Circuit())
	for _, period := range []uint64{1000, 3, 2, 1, 0, 77} {
		l.SetInput("load", 1)
		l.SetInput("period", period)
		l.Tick()
		l.SetInput("load", 0)
		l.Tick()
		k := l.Quiet(rtl.Vary{})
		// left = period-1 now (0 for period 0, and the flag already set
		// for period 1: fixed points); the compare left == 1 flips period-2
		// cycles on.
		want := uint64(0)
		switch {
		case period <= 1:
			want = ^uint64(0)
		case period > 3:
			want = period - 3
		}
		if k != want {
			t.Fatalf("period %d: Quiet = %d, want %d", period, k, want)
		}
		if k > 0 && k != ^uint64(0) {
			l.Advance(k, rtl.Vary{}, nil)
		}
		for i := 0; i < 4; i++ {
			l.Tick()
		}
		if fire := l.Peek("fire"); fire != 1 && period != 0 {
			t.Fatalf("period %d: timer did not fire", period)
		}
		if k := l.Quiet(rtl.Vary{}); k != ^uint64(0) {
			t.Errorf("period %d: a fired timer is quiet for %d cycles, want forever", period, k)
		}
	}
}

// genCounterCircuit builds, from the byte stream, the kind of netlist closed
// forms are about: counters stepping by 1, 3 or 2^w-1 from near the top of
// their range (so they wrap), compares of them against constants near their
// values and against a register loaded from an input, muxes and selects on
// those compares, sticky flags and captures, a memory write a compare
// enables, and random logic over all of it. Outputs read any of them.
func genCounterCircuit(f *fz) (*rtl.Circuit, error) {
	b := rtl.NewBuilder("cf")
	in0 := b.Ref(b.Input("in0", 1+int(f.b()%8)))
	in1 := b.Ref(b.Input("in1", 1))
	var pool, cmps, cnts []rtl.Expr
	n := 1 + int(f.b()%3)
	for i := 0; i < n; i++ {
		w := 2 + int(f.b()%10)
		mask := rtl.Mask(w)
		init := mask - uint64(f.b()%6)
		if f.b()&3 == 0 {
			init = f.u64() & mask
		}
		id := b.Reg(fmt.Sprintf("cnt%d", i), w, init)
		cnt := b.Ref(id)
		step := [3]uint64{1, 3, mask}[f.b()%3]
		next := rtl.Add(cnt, rtl.C(step, w))
		switch f.b() % 4 {
		case 1:
			next = rtl.MuxE(in1, rtl.C(0, w), next)
		case 2:
			next = rtl.Sub(cnt, rtl.C(1, w))
		}
		b.Seq(id, next)
		cnts = append(cnts, cnt)
		pool = append(pool, cnt)
	}
	lim := b.Reg("lim", 8, f.u64())
	b.Seq(lim, rtl.MuxE(in1, rtl.Resize(in0, 8), b.Ref(lim)))
	pool = append(pool, b.Ref(lim))
	ops := []func(x, y rtl.Expr) rtl.Expr{rtl.Lt, rtl.Le, rtl.Gt, rtl.Ge, rtl.Eq, rtl.Ne}
	for i, nc := 0, 1+int(f.b()%4); i < nc; i++ {
		cnt := cnts[int(f.b())%len(cnts)]
		w := cnt.Width()
		var other rtl.Expr = rtl.C(f.u64()&rtl.Mask(w), w)
		switch f.b() % 3 {
		case 0:
			other = rtl.Resize(b.Ref(lim), w)
		case 1:
			// Near where the counter starts, so the compare flips soon.
			other = rtl.C((uint64(f.b()%8)-4)&rtl.Mask(w), w)
		}
		x, y := cnt, other
		if f.b()&1 == 1 {
			x, y = y, x
		}
		id := b.Wire(fmt.Sprintf("cmp%d", i), 1)
		b.Assign(id, ops[int(f.b())%len(ops)](x, y))
		cmps = append(cmps, b.Ref(id))
		pool = append(pool, b.Ref(id))
	}
	// Counters of a varying input, as the PMU's event counters are: each
	// adds one bit of ev a cycle, gated by a known enable, either directly
	// or through a pipelined register, and compares itself with a threshold
	// (>= or ==) on which it may reset.
	if nv := int(f.b() % 4); nv > 0 {
		we := 1 + int(f.b()%4)
		ev := b.Ref(b.Input("ev", we))
		en := b.Reg("en", we, f.u64())
		b.Seq(en, rtl.MuxE(in1, rtl.Resize(in0, we), b.Ref(en)))
		piped := f.b()&1 == 1
		src := ev
		if piped {
			evr := b.Reg("evr", we, f.u64())
			b.Seq(evr, rtl.AndE(ev, b.Ref(en)))
			src = b.Ref(evr)
		}
		for i := 0; i < nv; i++ {
			w := 2 + int(f.b()%10)
			id := b.Reg(fmt.Sprintf("cv%d", i), w, uint64(f.b()%16))
			cv := b.Ref(id)
			bit := int(f.b()) % we
			t := rtl.Bit(src, bit)
			if !piped {
				t = rtl.AndE(t, rtl.Bit(b.Ref(en), bit))
			}
			hit := b.Wire(fmt.Sprintf("hit%d", i), 1)
			if thr := rtl.C(uint64(f.b()%16), w); f.b()&1 == 0 {
				b.Assign(hit, rtl.Ge(cv, thr))
			} else {
				b.Assign(hit, rtl.Eq(cv, thr))
			}
			next := rtl.Add(cv, t)
			if f.b()&1 == 0 {
				next = rtl.MuxE(b.Ref(hit), rtl.C(0, w), next)
			}
			b.Seq(id, next)
			cnts = append(cnts, cv)
			cmps = append(cmps, b.Ref(hit))
			pool = append(pool, b.Ref(hit))
		}
	}
	pick := func(from []rtl.Expr) rtl.Expr { return from[int(f.b())%len(from)] }
	for i, nx := 0, int(f.b()%5); i < nx; i++ {
		switch f.b() % 7 {
		case 0: // a mux on a compare
			x, y := pick(pool), pick(pool)
			id := b.Wire(fmt.Sprintf("mux%d", i), 8)
			b.Assign(id, rtl.MuxE(pick(cmps), rtl.Resize(x, 8), rtl.Resize(y, 8)))
			pool = append(pool, b.Ref(id))
		case 6: // a mux on a counter: true until it reaches zero
			x, y := pick(pool), pick(pool)
			id := b.Wire(fmt.Sprintf("muxc%d", i), 8)
			b.Assign(id, rtl.MuxE(pick(cnts), rtl.Resize(x, 8), rtl.Resize(y, 8)))
			pool = append(pool, b.Ref(id))
		case 1: // a register-file read: a select over a held selector
			sel := rtl.Resize(in0, 2)
			var e rtl.Expr = rtl.Resize(pick(pool), 8)
			for k := 2; k >= 0; k-- {
				e = rtl.MuxE(rtl.Eq(sel, rtl.C(uint64(k), 2)), rtl.Resize(pick(pool), 8), e)
			}
			id := b.Wire(fmt.Sprintf("sel%d", i), 8)
			b.Assign(id, e)
			pool = append(pool, b.Ref(id))
		case 2: // a sticky flag
			id := b.Reg(fmt.Sprintf("flag%d", i), 1, 0)
			b.Seq(id, rtl.MuxE(pick(cmps), rtl.C(1, 1), b.Ref(id)))
			pool = append(pool, b.Ref(id))
		case 3: // a capture of a counter while a compare holds
			cnt := pick(cnts)
			id := b.Reg(fmt.Sprintf("cap%d", i), cnt.Width(), f.u64())
			b.Seq(id, rtl.MuxE(pick(cmps), cnt, b.Ref(id)))
			pool = append(pool, b.Ref(id))
		case 4: // random logic
			id := b.Wire(fmt.Sprintf("rnd%d", i), 8)
			b.Assign(id, rtl.Resize(genExpr(f, pool, 0, 0, false, 1), 8))
			pool = append(pool, b.Ref(id))
		default: // a memory word written when a compare holds
			m := b.Mem(fmt.Sprintf("m%d", i), 8, 4)
			b.MemWr(m, rtl.C(uint64(f.b()%4), 2), rtl.Resize(pick(pool), 8), pick(cmps))
			id := b.Wire(fmt.Sprintf("rd%d", i), 8)
			b.Assign(id, rtl.MemRd(m, rtl.C(uint64(f.b()%4), 2), 8))
			pool = append(pool, b.Ref(id))
		}
	}
	for i, no := 0, 1+int(f.b()%2); i < no; i++ {
		o := b.Output(fmt.Sprintf("out%d", i), 8)
		b.Assign(o, rtl.Resize(pick(pool), 8))
	}
	return b.Build()
}

// FuzzClosedForm holds Quiet and Advance to the reference. At every point of
// a random run where the VM reports a stretch of k cycles, with the bits of
// the circuit's ev input (when it has one) free to vary, Advance(k') for
// every k' <= k (up to 24, and k itself up to 1024) is checked, from that
// same point, against k' real cycles of the reference through rtl.Lockstep
// driven by a random sequence of ev values, and k itself also by ev at all
// ones on every cycle, the worst case the horizon is taken on: every signal,
// memory word and the cycle count after, and every output unchanged during.
// Each input runs a second time with a VCD writer on both sides, with the
// same inputs free to vary: every traced stretch, counted and pipelined
// registers included, must write the reference's bytes, over random
// sequences and over all ones alike.
func FuzzClosedForm(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 9, 0, 0, 1, 0, 0, 3, 4, 5, 0, 0, 0, 0, 0, 0, 0, 0, 7, 7, 1, 1, 2, 2})
	seed := make([]byte, 300)
	s := uint64(0x2545f4914f6cdd1d)
	for i := range seed {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		seed[i] = byte(s)
	}
	f.Add(seed)
	f.Add(seed[7:200])
	f.Add([]byte{3, 1, 1, 1, 9, 255, 5, 1, 1, 0, 8, 2, 9, 0, 3, 0, 4, 1, 1, 0, 2, 0, 5, 3, 2, 2, 4})

	f.Fuzz(func(t *testing.T, data []byte) {
		checkClosedForm(t, data, false)
		checkClosedForm(t, data, true)
	})
}

// checkClosedForm runs one FuzzClosedForm input, with VCD writers attached
// when wave is set, and returns how many stretches it checked.
func checkClosedForm(t *testing.T, data []byte, wave bool) (stretches int) {
	fr := &fz{data: data}
	c, err := genCounterCircuit(fr)
	if err != nil {
		return 0
	}
	p, err := rtlc.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	var vary rtl.Vary
	for i, sg := range c.Signals {
		if sg.Name == "ev" {
			vary = rtl.Vary{In: rtl.SigID(i), Bits: rtl.Mask(sg.Width)}
		}
	}
	fresh := func() *rtl.Lockstep {
		m, err := rtlc.Instantiate(c, p)
		if err != nil {
			t.Fatal(err)
		}
		l := rtl.NewLockstep(m, t.Fatalf)
		if wave {
			l.AttachVCD()
		}
		return l
	}
	// evs is a stretch's ev sequence: n values from the byte stream, or all
	// ones.
	evs := func(n uint64, ones bool) []uint64 {
		if vary.Bits == 0 {
			return nil
		}
		in := make([]uint64, n)
		for j := range in {
			in[j] = ^uint64(0)
			if !ones {
				in[j] = uint64(fr.b())
			}
		}
		return in
	}
	// A run is a log of steps: drive the inputs and tick (or only drive
	// them: a stretch asked for then must see them), or apply a stretch the
	// VM found. Replaying it on a fresh pair returns to any point of the run.
	type step struct {
		in0, in1, ev uint64
		hold         bool
		advance      uint64
		evs          []uint64
	}
	apply := func(l *rtl.Lockstep, s step) {
		if s.advance > 0 {
			if k := l.Quiet(vary); k < s.advance {
				t.Fatalf("replay: Quiet = %d, the run applied %d", k, s.advance)
			}
			l.Advance(s.advance, vary, s.evs)
			return
		}
		l.SetInput("in0", s.in0)
		l.SetInput("in1", s.in1)
		if vary.Bits != 0 {
			l.SetInput("ev", s.ev&vary.Bits)
		}
		if !s.hold {
			l.Tick()
		}
	}
	next := func() step { return step{in0: fr.u64(), in1: uint64(fr.b() & 1), ev: uint64(fr.b())} }
	var log []step
	l := fresh()
	var cur step
	for i := 0; i < 16; i++ {
		if fr.b()&1 == 0 {
			cur = next()
		}
		apply(l, cur)
		log = append(log, cur)
		if fr.b()&3 == 0 {
			cur = next()
			s := cur
			s.hold = true
			apply(l, s)
			log = append(log, s)
		}
		k := l.Quiet(vary)
		if k == 0 {
			continue
		}
		stretches++
		most := min(k, 24)
		type trial struct {
			n    uint64
			ones bool
		}
		var trials []trial
		for kp := uint64(1); kp <= most; kp++ {
			trials = append(trials, trial{kp, false})
		}
		if k <= 1024 {
			trials = append(trials, trial{k, vary.Bits != 0})
			if k > most {
				trials = append(trials, trial{k, false})
			}
		}
		for _, tr := range trials {
			r := fresh()
			for _, s := range log {
				apply(r, s)
			}
			if got := r.Quiet(vary); got != k {
				t.Fatalf("step %d: Quiet = %d on the run, %d on its replay", i, k, got)
			}
			r.Advance(tr.n, vary, evs(tr.n, tr.ones))
		}
		adv := 1 + uint64(fr.b())%most
		s := step{advance: adv, evs: evs(adv, false)}
		l.Advance(adv, vary, s.evs)
		log = append(log, s)
	}
	return stretches
}
