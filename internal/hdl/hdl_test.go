package hdl_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"gem5rtl/internal/hdl"
	"gem5rtl/internal/pmu"
	"gem5rtl/internal/rtl"
	"gem5rtl/internal/rtlc"
	"gem5rtl/internal/verilog"
	"gem5rtl/internal/vhdl"
)

// programPin hashes what a front-end change must leave alone: the
// circuit's name, its signals' and memories' names, kinds, widths, initial
// values and depths, and the program the VM compiles it to.
func programPin(t *testing.T, m *rtl.Model) string {
	t.Helper()
	c := m.Circuit()
	p, err := rtlc.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "circuit %s\n", c.Name)
	for _, s := range c.Signals {
		fmt.Fprintf(h, "sig %s %s %d %#x\n", s.Name, s.Kind, s.Width, s.Init)
	}
	for _, mem := range c.Mems {
		fmt.Fprintf(h, "mem %s %d %d\n", mem.Name, mem.Width, mem.Depth)
	}
	io.WriteString(h, p.Disasm())
	return hex.EncodeToString(h.Sum(nil))
}

func readFile(t testing.TB, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

const sorterPath = "../../examples/bitonic-vhdl/sorter.vhd"

// TestCompiledProgramsPinned holds the compiled PMU (both sizes the repo
// builds) and the VHDL bitonic sorter to the bytes the two per-language
// elaborators produced before they were merged: a front-end change that
// moves a signal, an instruction or a register assignment fails here.
func TestCompiledProgramsPinned(t *testing.T) {
	pmuModel := func(nc int) (*rtl.Model, error) { return verilog.Compile(pmu.VerilogSource(nc), "pmu", nil) }
	for _, tc := range []struct {
		name  string
		model func() (*rtl.Model, error)
		want  string
	}{
		{"pmu-20", func() (*rtl.Model, error) { return pmuModel(pmu.NumCounters) }, "915c61214827738f03e863759b6390aa437847a760d7f66a1d0027215d24d53e"},
		{"pmu-4", func() (*rtl.Model, error) { return pmuModel(4) }, "9ad080093dcb159464d5f0228b0e0e4f1129478aa77840155fa4ee6b18c066e8"},
		{"bitonic8", func() (*rtl.Model, error) { return vhdl.Compile(readFile(t, sorterPath), "bitonic8", nil) }, "9e93db70d8e52930450571a08771daea2b37f9caed4de43eb64ab68b159144ee"},
	} {
		m, err := tc.model()
		if err != nil {
			t.Fatal(err)
		}
		if got := programPin(t, m); got != tc.want {
			t.Errorf("%s: compiled program moved:\n  got  %s\n  want %s", tc.name, got, tc.want)
		}
	}
}

// crashInputs are inputs that crashed or hung the front ends before their
// fixes; each must be refused with an error.
var crashInputs = []struct {
	name, lang, src string
}{
	// shift_left/shift_right take two arguments.
	{"vhdl-shift-arity", "vhdl", `entity m is port (a : in std_logic_vector(7 downto 0); y : out std_logic_vector(7 downto 0)); end entity;
architecture r of m is begin y <= std_logic_vector(shift_left(unsigned(a))); end architecture;`},
	// 2^35 words, far past rtl.MaxMemWords.
	{"verilog-mem-depth", "verilog", `module m (input wire [7:0] a, output wire [7:0] y);
  reg [7:0] mem [0:34359738367];
  assign y = mem[a];
endmodule`},
	// An exponent too large to loop over. P wraps to 0, so the replication
	// is refused.
	{"verilog-power", "verilog", `module m (input wire a, output wire [7:0] y);
  localparam P = 2 ** 64'h7FFFFFFFFFFFFFFF;
  assign y = {P{a}};
endmodule`},
	// A count whose product with a's width overflows int.
	{"verilog-repeat", "verilog", `module m (input wire [3:0] a, output wire [7:0] y);
  assign y = {64'h4000000000000000{a}};
endmodule`},
}

// deepInputs nest past hdl.MaxNesting: 10 MB of parentheses around one
// operand, which once overflowed the goroutine stack, and — to reach each
// parser's own bound behind its lexer's bracket count — chains of unary
// operators, conditionals and statements a level too deep.
func deepInputs() []struct{ name, lang, src string } {
	const parens = 5_000_000 // 10 MB of brackets
	over := hdl.MaxNesting + 1
	rep := strings.Repeat
	vlog := func(body string) string {
		return "module m (input wire a, output reg y);\n" + body + "\nendmodule\n"
	}
	vhd := func(body string) string {
		return "entity m is port (a : in std_logic; y : out std_logic); end entity;\n" +
			"architecture r of m is begin\n" + body + "\nend architecture;\n"
	}
	return []struct{ name, lang, src string }{
		{"verilog-parens", "verilog", vlog("assign y = " + rep("(", parens) + "a" + rep(")", parens) + ";")},
		{"verilog-unary", "verilog", vlog("assign y = " + rep("~", over) + "a;")},
		{"verilog-cond", "verilog", vlog("assign y = " + rep("a ? a : ", over) + "a;")},
		{"verilog-if", "verilog", vlog("always @* begin " + rep("if (a) ", over) + "y = a; end")},
		{"vhdl-parens", "vhdl", vhd("y <= " + rep("(", parens) + "a" + rep(")", parens) + ";")},
		{"vhdl-unary", "vhdl", vhd("y <= " + rep("not ", over) + "a;")},
		{"vhdl-when", "vhdl", vhd("y <= " + rep("a when a = '1' else ", over) + "a;")},
		{"vhdl-if", "vhdl", vhd("process (a) begin " + rep("if a = '1' then ", over) + "y <= a;" +
			rep(" end if;", over) + " end process;")},
	}
}

// TestDeepNestingReturnsErrors feeds each parser sources nested past
// hdl.MaxNesting, the 10 MB bracket nests among them: each must be refused
// with an error within a second. A design nested well inside the bound still
// compiles.
func TestDeepNestingReturnsErrors(t *testing.T) {
	for _, tc := range deepInputs() {
		done := make(chan error, 1)
		go func() {
			if tc.lang == "vhdl" {
				_, err := vhdl.Parse(tc.src)
				done <- err
				return
			}
			_, err := verilog.Parse(tc.src)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "nested deeper than") {
				t.Errorf("%s: err = %v, want a nesting error", tc.name, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s: no result within a second", tc.name)
		}
	}
	const depth = 100
	src := "module m (input wire a, output wire y);\n  assign y = " +
		strings.Repeat("~(", depth) + "a" + strings.Repeat(")", depth) + ";\nendmodule\n"
	if _, err := compileAs("verilog", src, "m"); err != nil {
		t.Errorf("nesting %d deep refused: %v", depth, err)
	}
}

func compileAs(lang, src, top string) (*rtl.Model, error) {
	if lang == "vhdl" {
		return vhdl.Compile(src, top, nil)
	}
	return verilog.Compile(src, top, nil)
}

// TestCrashInputsReturnErrors runs every crash input with a one-second
// budget: each must return, and with an error.
func TestCrashInputsReturnErrors(t *testing.T) {
	for _, tc := range crashInputs {
		done := make(chan error, 1)
		go func() {
			_, err := compileAs(tc.lang, tc.src, "m")
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: compiled without error", tc.name)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s: no result within a second", tc.name)
		}
	}
}

// TestConstPower checks ** in constant expressions against repeated
// multiplication: wrapping at 64 bits, and 1 for a zero or negative
// exponent.
func TestConstPower(t *testing.T) {
	type power struct{ a, b, want int64 }
	cases := []power{{-1, 1<<62 + 1, -1}, {1, 1 << 62, 1}, {2, 1<<63 - 1, 0}}
	for _, a := range []int64{-3, -1, 0, 2, 3, 7} {
		for _, b := range []int64{-2, 0, 1, 5, 41, 63, 64, 100} {
			r := int64(1)
			for i := int64(0); i < b; i++ {
				r *= a
			}
			cases = append(cases, power{a, b, r})
		}
	}
	for _, tc := range cases {
		// A parameter reads as 32 bits: H carries P's upper half.
		src := fmt.Sprintf(`module m (output wire [63:0] y);
  localparam P = %d ** %d;
  localparam H = P >> 32;
  assign y = {H, P};
endmodule`, tc.a, tc.b)
		m, err := verilog.Compile(src, "m", nil)
		if err != nil {
			t.Fatalf("%d ** %d: %v", tc.a, tc.b, err)
		}
		m.Eval()
		if got := m.Peek("y"); got != uint64(tc.want) {
			t.Errorf("%d ** %d = %#x, want %#x", tc.a, tc.b, got, uint64(tc.want))
		}
	}
}
