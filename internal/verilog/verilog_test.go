package verilog

import (
	"strings"
	"testing"
	"testing/quick"

	"gem5rtl/internal/rtl"
)

// compile builds src on the production engine and returns it in lockstep with
// the reference evaluator, so every cycle a test drives is also a differential
// check of the construct under test.
func compile(t testing.TB, src, top string) *rtl.Lockstep {
	t.Helper()
	return compileParams(t, src, top, nil)
}

func compileParams(t testing.TB, src, top string, overrides map[string]int64) *rtl.Lockstep {
	t.Helper()
	m, err := Compile(src, top, overrides)
	if err != nil {
		t.Fatal(err)
	}
	return rtl.NewLockstep(m, t.Fatalf)
}

const counterSrc = `
// An 8-bit counter with enable and synchronous reset.
module counter (
    input  wire clk,
    input  wire rst,
    input  wire en,
    output reg [7:0] q
);
  always @(posedge clk) begin
    if (rst)
      q <= 8'd0;
    else if (en)
      q <= q + 8'd1;
  end
endmodule
`

func TestCounter(t *testing.T) {
	m := compile(t, counterSrc, "counter")
	m.SetInput("en", 1)
	for i := 0; i < 5; i++ {
		m.Tick()
	}
	if got := m.Peek("q"); got != 5 {
		t.Fatalf("q = %d, want 5", got)
	}
	m.SetInput("rst", 1)
	m.Tick()
	if got := m.Peek("q"); got != 0 {
		t.Fatalf("after rst q = %d, want 0", got)
	}
	m.SetInput("rst", 0)
	m.SetInput("en", 0)
	m.Tick()
	if got := m.Peek("q"); got != 0 {
		t.Fatalf("disabled counter moved: q = %d", got)
	}
}

func TestContinuousAssignAndOperators(t *testing.T) {
	src := `
module alu (
    input wire [15:0] a,
    input wire [15:0] b,
    input wire [2:0] op,
    output wire [15:0] y,
    output wire zero
);
  wire [15:0] sum = a + b;
  wire [15:0] dif = a - b;
  reg [15:0] sel;
  always @(*) begin
    case (op)
      3'd0: sel = sum;
      3'd1: sel = dif;
      3'd2: sel = a & b;
      3'd3: sel = a | b;
      3'd4: sel = a ^ b;
      3'd5: sel = a << b[3:0];
      3'd6: sel = a >> b[3:0];
      default: sel = 16'hFFFF;
    endcase
  end
  assign y = sel;
  assign zero = (sel == 16'd0);
endmodule
`
	m := compile(t, src, "alu")
	ref := func(a, b uint16, op uint8) uint16 {
		switch op {
		case 0:
			return a + b
		case 1:
			return a - b
		case 2:
			return a & b
		case 3:
			return a | b
		case 4:
			return a ^ b
		case 5:
			return a << (b & 0xF)
		case 6:
			return a >> (b & 0xF)
		default:
			return 0xFFFF
		}
	}
	f := func(a, b uint16, op uint8) bool {
		op %= 8
		m.SetInput("a", uint64(a))
		m.SetInput("b", uint64(b))
		m.SetInput("op", uint64(op))
		m.Eval()
		want := ref(a, b, op)
		wantZero := uint64(0)
		if want == 0 {
			wantZero = 1
		}
		return m.Peek("y") == uint64(want) && m.Peek("zero") == wantZero
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestIfElseChainPriority(t *testing.T) {
	src := `
module prio (input wire [3:0] r, output reg [1:0] g);
  always @(*) begin
    g = 2'd0;
    if (r[0]) g = 2'd0;
    else if (r[1]) g = 2'd1;
    else if (r[2]) g = 2'd2;
    else if (r[3]) g = 2'd3;
  end
endmodule
`
	m := compile(t, src, "prio")
	cases := map[uint64]uint64{0b0001: 0, 0b0010: 1, 0b0100: 2, 0b1000: 3, 0b1010: 1, 0b0000: 0, 0b1111: 0}
	for in, want := range cases {
		m.SetInput("r", in)
		m.Eval()
		if got := m.Peek("g"); got != want {
			t.Fatalf("r=%04b: g = %d, want %d", in, got, want)
		}
	}
}

func TestLastAssignmentWins(t *testing.T) {
	src := `
module law (input wire a, output reg [3:0] y);
  always @(*) begin
    y = 4'd1;
    y = 4'd2;
    if (a) y = 4'd7;
  end
endmodule
`
	m := compile(t, src, "law")
	m.SetInput("a", 0)
	m.Eval()
	if m.Peek("y") != 2 {
		t.Fatalf("y = %d, want 2", m.Peek("y"))
	}
	m.SetInput("a", 1)
	m.Eval()
	if m.Peek("y") != 7 {
		t.Fatalf("y = %d, want 7", m.Peek("y"))
	}
}

func TestBlockingReadsSeeUpdates(t *testing.T) {
	src := `
module blk (input wire [7:0] a, output reg [7:0] y);
  reg [7:0] t;
  always @(*) begin
    t = a + 8'd1;
    y = t * 8'd2;
  end
endmodule
`
	m := compile(t, src, "blk")
	m.SetInput("a", 10)
	m.Eval()
	if m.Peek("y") != 22 {
		t.Fatalf("y = %d, want 22", m.Peek("y"))
	}
}

func TestNonBlockingSwap(t *testing.T) {
	src := `
module swap (input wire clk, output reg [3:0] x, output reg [3:0] y);
  reg [3:0] a = 4'd3;
  reg [3:0] b = 4'd9;
  always @(posedge clk) begin
    a <= b;
    b <= a;
    x <= a;
    y <= b;
  end
endmodule
`
	m := compile(t, src, "swap")
	m.Tick()
	m.Tick()
	// After two ticks a/b are back to initial; x/y show the pre-tick values.
	if m.Peek("a") != 3 || m.Peek("b") != 9 {
		t.Fatalf("swap failed: a=%d b=%d", m.Peek("a"), m.Peek("b"))
	}
}

func TestLatchDetection(t *testing.T) {
	src := `
module latch (input wire en, input wire [3:0] d, output reg [3:0] q);
  always @(*) begin
    if (en) q = d;
  end
endmodule
`
	if _, err := Compile(src, "latch", nil); err == nil ||
		!strings.Contains(err.Error(), "latch") {
		t.Fatalf("latch not detected: %v", err)
	}
}

func TestParameters(t *testing.T) {
	src := `
module count #(parameter W = 4, parameter STEP = 1) (
    input wire clk, output reg [W-1:0] q
);
  always @(posedge clk) q <= q + STEP;
endmodule
`
	m := compileParams(t, src, "count", map[string]int64{"W": 8, "STEP": 3})
	for i := 0; i < 4; i++ {
		m.Tick()
	}
	if m.Peek("q") != 12 {
		t.Fatalf("q = %d, want 12", m.Peek("q"))
	}
	// Default params: width 4 wraps at 16.
	m2 := compile(t, src, "count")
	for i := 0; i < 17; i++ {
		m2.Tick()
	}
	if m2.Peek("q") != 1 {
		t.Fatalf("default q = %d, want 1", m2.Peek("q"))
	}
}

func TestHierarchy(t *testing.T) {
	src := `
module halfadd (input wire a, input wire b, output wire s, output wire c);
  assign s = a ^ b;
  assign c = a & b;
endmodule

module fulladd (input wire a, input wire b, input wire cin,
                output wire s, output wire cout);
  wire s1, c1, c2;
  halfadd h0 (.a(a), .b(b), .s(s1), .c(c1));
  halfadd h1 (.a(s1), .b(cin), .s(s), .c(c2));
  assign cout = c1 | c2;
endmodule
`
	m := compile(t, src, "fulladd")
	for in := 0; in < 8; in++ {
		a, b, cin := uint64(in&1), uint64(in>>1&1), uint64(in>>2&1)
		m.SetInput("a", a)
		m.SetInput("b", b)
		m.SetInput("cin", cin)
		m.Eval()
		sum := a + b + cin
		if m.Peek("s") != sum&1 || m.Peek("cout") != sum>>1 {
			t.Fatalf("a=%d b=%d cin=%d: s=%d cout=%d", a, b, cin, m.Peek("s"), m.Peek("cout"))
		}
	}
}

func TestHierarchyWithParamsAndRegs(t *testing.T) {
	src := `
module stage #(parameter INC = 1) (input wire clk, input wire [7:0] d, output reg [7:0] q);
  always @(posedge clk) q <= d + INC;
endmodule

module pipe (input wire clk, input wire [7:0] d, output wire [7:0] q);
  wire [7:0] mid;
  stage #(.INC(2)) s0 (.clk(clk), .d(d), .q(mid));
  stage #(.INC(5)) s1 (.clk(clk), .d(mid), .q(q));
endmodule
`
	m := compile(t, src, "pipe")
	m.SetInput("d", 10)
	m.Tick() // mid <= 12
	m.Tick() // q <= 17
	if m.Peek("q") != 17 {
		t.Fatalf("q = %d, want 17", m.Peek("q"))
	}
}

func TestMemoryInference(t *testing.T) {
	src := `
module regfile (
    input wire clk,
    input wire we,
    input wire [3:0] waddr,
    input wire [31:0] wdata,
    input wire [3:0] raddr,
    output wire [31:0] rdata
);
  reg [31:0] rf [15:0];
  always @(posedge clk) begin
    if (we) rf[waddr] <= wdata;
  end
  assign rdata = rf[raddr];
endmodule
`
	m := compile(t, src, "regfile")
	m.SetInput("we", 1)
	m.SetInput("waddr", 3)
	m.SetInput("wdata", 0xDEAD)
	m.Tick()
	m.SetInput("we", 0)
	m.SetInput("raddr", 3)
	m.Eval()
	if m.Peek("rdata") != 0xDEAD {
		t.Fatalf("rdata = %#x", m.Peek("rdata"))
	}
}

func TestConcatRepeatSelect(t *testing.T) {
	src := `
module bits (input wire [7:0] a, output wire [15:0] y, output wire [7:0] rev);
  assign y = {a[3:0], {3{a[7]}}, 1'b1, a[7:4], a[0]};
  assign rev = {a[0],a[1],a[2],a[3],a[4],a[5],a[6],a[7]};
endmodule
`
	m := compile(t, src, "bits")
	f := func(av uint8) bool {
		m.SetInput("a", uint64(av))
		m.Eval()
		a := uint64(av)
		msb := a >> 7 & 1
		// The concat is 13 bits wide: a[3:0] | {3{a[7]}} | 1 | a[7:4] | a[0],
		// zero-extended into the 16-bit y.
		ref := (a & 0xF) << 9
		ref |= msb << 8
		ref |= msb << 7
		ref |= msb << 6
		ref |= 1 << 5
		ref |= (a >> 4 & 0xF) << 1
		ref |= a & 1
		var rev uint64
		for i := 0; i < 8; i++ {
			rev |= (a >> i & 1) << (7 - i)
		}
		return m.Peek("y") == ref && m.Peek("rev") == rev
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTernaryAndDynamicIndex(t *testing.T) {
	src := `
module dyn (input wire [7:0] a, input wire [2:0] i, output wire b, output wire [7:0] m);
  assign b = a[i];
  assign m = (a > 8'd100) ? 8'd100 : a;
endmodule
`
	m := compile(t, src, "dyn")
	f := func(av, iv uint8) bool {
		m.SetInput("a", uint64(av))
		m.SetInput("i", uint64(iv%8))
		m.Eval()
		wantB := uint64(av>>(iv%8)) & 1
		wantM := uint64(av)
		if av > 100 {
			wantM = 100
		}
		return m.Peek("b") == wantB && m.Peek("m") == wantM
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitAndPartSelectLValue(t *testing.T) {
	src := `
module sel (input wire clk, input wire [7:0] d, output reg [7:0] q);
  always @(posedge clk) begin
    q[3:0] <= d[7:4];
    q[7] <= d[0];
  end
endmodule
`
	m := compile(t, src, "sel")
	m.SetInput("d", 0xA5)
	m.Tick()
	// q[3:0] = 0xA, q[7] = 1, q[6:4] unchanged (0).
	if got := m.Peek("q"); got != 0x8A {
		t.Fatalf("q = %#x, want 0x8A", got)
	}
}

func TestAsyncResetStyleAccepted(t *testing.T) {
	src := `
module ar (input wire clk, input wire rst_n, input wire [3:0] d, output reg [3:0] q);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 4'd0;
    else q <= d;
  end
endmodule
`
	m := compile(t, src, "ar")
	m.SetInput("rst_n", 1)
	m.SetInput("d", 9)
	m.Tick()
	if m.Peek("q") != 9 {
		t.Fatalf("q = %d", m.Peek("q"))
	}
	m.SetInput("rst_n", 0)
	m.Tick()
	if m.Peek("q") != 0 {
		t.Fatalf("reset q = %d", m.Peek("q"))
	}
}

func TestUnsupportedConstructsRejected(t *testing.T) {
	cases := []struct{ name, src, wantErr string }{
		{"initial", `module m (input wire clk); initial begin end endmodule`, "not supported"},
		{"forloop", `module m (input wire clk, output reg q);
		   always @(posedge clk) begin for (i=0;i<4;i=i+1) q <= 1; end endmodule`, "not supported"},
		{"inout", `module m (inout wire x); endmodule`, "not supported"},
		{"wide", `module m (input wire [127:0] x, output wire y); assign y = x[0]; endmodule`, "width"},
		{"unknownmod", `module m (input wire a); foo u0 (.x(a)); endmodule`, "unknown module"},
		{"badport", `module s (input wire a, output wire b); assign b = a; endmodule
		  module m (input wire a, output wire b); s u0 (.a(a), .b(b), .zz(a)); endmodule`, "no port"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src, "m", nil)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

func TestNumberFormats(t *testing.T) {
	src := `
module n (output wire [63:0] a, output wire [15:0] b, output wire [7:0] c,
          output wire [11:0] d, output wire [31:0] e);
  assign a = 64'hDEAD_BEEF_CAFE_F00D;
  assign b = 16'd12345;
  assign c = 8'b1010_0101;
  assign d = 12'o7654;
  assign e = 100;
endmodule
`
	m := compile(t, src, "n")
	m.Eval()
	if m.Peek("a") != 0xDEADBEEFCAFEF00D {
		t.Fatalf("a = %#x", m.Peek("a"))
	}
	if m.Peek("b") != 12345 || m.Peek("c") != 0xA5 || m.Peek("d") != 0o7654 || m.Peek("e") != 100 {
		t.Fatal("literal decoding wrong")
	}
}

func TestSignedComparisonViaSra(t *testing.T) {
	src := `
module s (input wire [7:0] a, output wire [7:0] sra2);
  assign sra2 = a >>> 2;
endmodule
`
	m := compile(t, src, "s")
	m.SetInput("a", 0x80) // -128 signed
	m.Eval()
	if m.Peek("sra2") != 0xE0 {
		t.Fatalf("sra2 = %#x, want 0xE0", m.Peek("sra2"))
	}
}

func TestMultipleModulesTopSelection(t *testing.T) {
	src := `
module a (input wire x, output wire y); assign y = ~x; endmodule
module b (input wire x, output wire y); assign y = x; endmodule
`
	ma := compile(t, src, "a")
	mb := compile(t, src, "b")
	ma.SetInput("x", 1)
	ma.Eval()
	mb.SetInput("x", 1)
	mb.Eval()
	if ma.Peek("y") != 0 || mb.Peek("y") != 1 {
		t.Fatal("wrong top module elaborated")
	}
}

func TestParseErrorsHavePosition(t *testing.T) {
	_, err := Parse("module m (input wire a);\n  assign = 1;\nendmodule")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error lacks position: %v", err)
	}
}

func TestCaseWithMultipleMatches(t *testing.T) {
	src := `
module c (input wire [2:0] s, output reg [1:0] y);
  always @(*) begin
    case (s)
      3'd0, 3'd1: y = 2'd0;
      3'd2, 3'd3: y = 2'd1;
      default: y = 2'd3;
    endcase
  end
endmodule
`
	m := compile(t, src, "c")
	want := map[uint64]uint64{0: 0, 1: 0, 2: 1, 3: 1, 4: 3, 7: 3}
	for in, w := range want {
		m.SetInput("s", in)
		m.Eval()
		if m.Peek("y") != w {
			t.Fatalf("s=%d: y=%d want %d", in, m.Peek("y"), w)
		}
	}
}

func BenchmarkCompileCounter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Compile(counterSrc, "counter", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLocalparamAndBodyParameter(t *testing.T) {
	src := `
module lp (input wire clk, output reg [7:0] q);
  localparam STEP = 3;
  parameter BIAS = 1;
  always @(posedge clk) q <= q + STEP + BIAS;
endmodule
`
	m := compile(t, src, "lp")
	m.Tick()
	m.Tick()
	if m.Peek("q") != 8 {
		t.Fatalf("q = %d, want 8", m.Peek("q"))
	}
	// localparam must not be overridable; parameter must be.
	m2 := compileParams(t, src, "lp", map[string]int64{"BIAS": 5})
	m2.Tick()
	if m2.Peek("q") != 8 {
		t.Fatalf("override q = %d, want 8 (STEP 3 + BIAS 5)", m2.Peek("q"))
	}
}

func TestWireInitializer(t *testing.T) {
	src := `
module wi (input wire [3:0] a, output wire [3:0] y);
  wire [3:0] two = 4'd2;
  assign y = a + two;
endmodule
`
	m := compile(t, src, "wi")
	m.SetInput("a", 5)
	m.Eval()
	if m.Peek("y") != 7 {
		t.Fatalf("y = %d", m.Peek("y"))
	}
}

func TestAlwaysCombAndAlwaysFF(t *testing.T) {
	src := `
module sv (input wire clk, input wire [3:0] a, output reg [3:0] doubled, output reg [3:0] held);
  always_comb doubled = a + a;
  always_ff @(posedge clk) held <= a;
endmodule
`
	m := compile(t, src, "sv")
	m.SetInput("a", 3)
	m.Eval()
	if m.Peek("doubled") != 6 {
		t.Fatalf("always_comb: %d", m.Peek("doubled"))
	}
	if m.Peek("held") != 0 {
		t.Fatal("always_ff updated without a clock edge")
	}
	m.Tick()
	if m.Peek("held") != 3 {
		t.Fatalf("always_ff: %d", m.Peek("held"))
	}
}

func TestOperatorPrecedence(t *testing.T) {
	src := `
module prec (input wire [7:0] a, input wire [7:0] b, output wire [7:0] y, output wire z);
  assign y = a + b * 8'd2;         // * binds tighter than +
  assign z = a == 8'd1 || b == 8'd2 && a == 8'd9; // && over ||
endmodule
`
	m := compile(t, src, "prec")
	m.SetInput("a", 1)
	m.SetInput("b", 3)
	m.Eval()
	if m.Peek("y") != 7 {
		t.Fatalf("y = %d, want 7 (1 + 3*2)", m.Peek("y"))
	}
	if m.Peek("z") != 1 {
		t.Fatal("precedence of || / && wrong")
	}
	m.SetInput("a", 9)
	m.SetInput("b", 2)
	m.Eval()
	if m.Peek("z") != 1 {
		t.Fatal("b==2 && a==9 arm failed")
	}
}

func TestCommentsAndPreprocessorSkipped(t *testing.T) {
	src := "`timescale 1ns/1ps\n" + `
// line comment
module c (/* inline */ input wire a, output wire y);
  /* block
     comment */
  assign y = ~a; // trailing
endmodule
`
	m := compile(t, src, "c")
	m.SetInput("a", 0)
	m.Eval()
	if m.Peek("y") != 1 {
		t.Fatal("comment handling broke elaboration")
	}
}
