package vhdl

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"gem5rtl/internal/rtl"
)

// compile builds src on the production engine and returns it in lockstep with
// the reference evaluator, so every cycle a test drives is also a differential
// check of the construct under test.
func compile(t testing.TB, src, top string, overrides map[string]int64) *rtl.Lockstep {
	t.Helper()
	m, err := Compile(src, top, overrides)
	if err != nil {
		t.Fatal(err)
	}
	return rtl.NewLockstep(m, t.Fatalf)
}

const counterVHDL = `
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity counter is
  generic ( W : integer := 8 );
  port (
    clk : in  std_logic;
    rst : in  std_logic;
    en  : in  std_logic;
    q   : out std_logic_vector(W-1 downto 0)
  );
end entity;

architecture rtl of counter is
  signal count : unsigned(W-1 downto 0) := (others => '0');
begin
  q <= std_logic_vector(count);
  process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        count <= (others => '0');
      elsif en = '1' then
        count <= count + 1;
      end if;
    end if;
  end process;
end architecture;
`

func TestCounterVHDL(t *testing.T) {
	m := compile(t, counterVHDL, "counter", nil)
	m.SetInput("en", 1)
	for i := 0; i < 7; i++ {
		m.Tick()
	}
	if got := m.Peek("q"); got != 7 {
		t.Fatalf("q = %d, want 7", got)
	}
	m.SetInput("rst", 1)
	m.Tick()
	if got := m.Peek("q"); got != 0 {
		t.Fatalf("after rst q = %d", got)
	}
}

func TestGenericOverride(t *testing.T) {
	m := compile(t, counterVHDL, "counter", map[string]int64{"W": 3})
	m.SetInput("en", 1)
	for i := 0; i < 9; i++ {
		m.Tick() // wraps at 8
	}
	if got := m.Peek("q"); got != 1 {
		t.Fatalf("q = %d, want 1 (3-bit wrap)", got)
	}
}

func TestConcurrentConditionalAssign(t *testing.T) {
	src := `
entity mux4 is
  port (
    s : in std_logic_vector(1 downto 0);
    a : in std_logic_vector(7 downto 0);
    b : in std_logic_vector(7 downto 0);
    c : in std_logic_vector(7 downto 0);
    d : in std_logic_vector(7 downto 0);
    y : out std_logic_vector(7 downto 0)
  );
end entity;
architecture rtl of mux4 is
begin
  y <= a when s = "00" else
       b when s = "01" else
       c when s = "10" else
       d;
end architecture;
`
	m := compile(t, src, "mux4", nil)
	ins := []string{"a", "b", "c", "d"}
	for i, n := range ins {
		m.SetInput(n, uint64(10+i))
	}
	for s := uint64(0); s < 4; s++ {
		m.SetInput("s", s)
		m.Eval()
		if got := m.Peek("y"); got != 10+s {
			t.Fatalf("s=%d: y=%d want %d", s, got, 10+s)
		}
	}
}

func TestProcessCaseAndLogicOps(t *testing.T) {
	src := `
entity alu is
  port (
    op : in std_logic_vector(1 downto 0);
    a  : in std_logic_vector(15 downto 0);
    b  : in std_logic_vector(15 downto 0);
    y  : out std_logic_vector(15 downto 0)
  );
end entity;
architecture rtl of alu is
begin
  process(op, a, b)
  begin
    case op is
      when "00" => y <= std_logic_vector(unsigned(a) + unsigned(b));
      when "01" => y <= a and b;
      when "10" => y <= a or b;
      when others => y <= a xor b;
    end case;
  end process;
end architecture;
`
	m := compile(t, src, "alu", nil)
	f := func(a, b uint16, op uint8) bool {
		op %= 4
		m.SetInput("a", uint64(a))
		m.SetInput("b", uint64(b))
		m.SetInput("op", uint64(op))
		m.Eval()
		var want uint16
		switch op {
		case 0:
			want = a + b
		case 1:
			want = a & b
		case 2:
			want = a | b
		default:
			want = a ^ b
		}
		return m.Peek("y") == uint64(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncResetIdiom(t *testing.T) {
	src := `
entity ff is
  port ( clk, rst_n, d : in std_logic; q : out std_logic );
end entity;
architecture rtl of ff is
begin
  process(clk, rst_n)
  begin
    if rst_n = '0' then
      q <= '0';
    elsif rising_edge(clk) then
      q <= d;
    end if;
  end process;
end architecture;
`
	m := compile(t, src, "ff", nil)
	m.SetInput("rst_n", 1)
	m.SetInput("d", 1)
	m.Tick()
	if m.Peek("q") != 1 {
		t.Fatalf("q = %d", m.Peek("q"))
	}
	m.SetInput("rst_n", 0)
	m.Tick()
	if m.Peek("q") != 0 {
		t.Fatalf("reset q = %d", m.Peek("q"))
	}
}

func TestHierarchyVHDL(t *testing.T) {
	src := `
entity inc is
  generic ( STEP : integer := 1 );
  port ( d : in std_logic_vector(7 downto 0); q : out std_logic_vector(7 downto 0) );
end entity;
architecture rtl of inc is
begin
  q <= std_logic_vector(unsigned(d) + STEP);
end architecture;

entity top is
  port ( d : in std_logic_vector(7 downto 0); q : out std_logic_vector(7 downto 0) );
end entity;
architecture rtl of top is
  signal mid : std_logic_vector(7 downto 0);
begin
  u0: entity work.inc generic map (STEP => 3) port map (d => d, q => mid);
  u1: entity work.inc generic map (STEP => 10) port map (d => mid, q => q);
end architecture;
`
	m := compile(t, src, "top", nil)
	m.SetInput("d", 5)
	m.Eval()
	if got := m.Peek("q"); got != 18 {
		t.Fatalf("q = %d, want 18", got)
	}
}

func TestSliceAndIndex(t *testing.T) {
	src := `
entity bits is
  port (
    a : in std_logic_vector(7 downto 0);
    hi : out std_logic_vector(3 downto 0);
    b2 : out std_logic;
    cat : out std_logic_vector(15 downto 0)
  );
end entity;
architecture rtl of bits is
begin
  hi <= a(7 downto 4);
  b2 <= a(2);
  cat <= a & a;
end architecture;
`
	m := compile(t, src, "bits", nil)
	m.SetInput("a", 0xB6)
	m.Eval()
	if m.Peek("hi") != 0xB || m.Peek("b2") != 1 || m.Peek("cat") != 0xB6B6 {
		t.Fatalf("hi=%#x b2=%d cat=%#x", m.Peek("hi"), m.Peek("b2"), m.Peek("cat"))
	}
}

func TestLatchDetectionVHDL(t *testing.T) {
	src := `
entity l is
  port ( en, d : in std_logic; q : out std_logic );
end entity;
architecture rtl of l is
begin
  process(en, d)
  begin
    if en = '1' then
      q <= d;
    end if;
  end process;
end architecture;
`
	if _, err := Compile(src, "l", nil); err == nil || !strings.Contains(err.Error(), "latch") {
		t.Fatalf("latch not detected: %v", err)
	}
}

func TestUnsupportedRejected(t *testing.T) {
	cases := []struct{ name, src, wantErr string }{
		{"loop", `entity m is port (a : in std_logic); end entity;
		  architecture r of m is begin process(a) begin for i in 0 to 3 loop end loop; end process; end architecture;`,
			"not supported"},
		{"variable", `entity m is port (a : in std_logic); end entity;
		  architecture r of m is begin process(a) variable v : integer; begin end process; end architecture;`,
			"not supported"},
		{"inout", `entity m is port (a : inout std_logic); end entity;`, "not supported"},
		{"range", `entity m is port (a : in std_logic_vector(0 to 7)); end entity;
		  architecture r of m is begin end architecture;`, "downto"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src, "m", nil)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got: %v", tc.wantErr, err)
			}
		})
	}
}

// BitonicSorterVHDL is the paper's GHDL validation design (§4): a bitonic
// sorting network. This version sorts eight 8-bit values presented across
// two 32-bit input words, fully combinationally, exactly like the
// compare-exchange network a VHDL bitonic sorter synthesises to.
const BitonicSorterVHDL = `
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

-- One compare-exchange element: lo gets the smaller, hi the larger.
entity cmpex is
  port (
    a  : in  std_logic_vector(7 downto 0);
    b  : in  std_logic_vector(7 downto 0);
    lo : out std_logic_vector(7 downto 0);
    hi : out std_logic_vector(7 downto 0)
  );
end entity;
architecture rtl of cmpex is
begin
  lo <= a when unsigned(a) < unsigned(b) else b;
  hi <= b when unsigned(a) < unsigned(b) else a;
end architecture;

-- 8-lane bitonic sorting network over two 32-bit buses (4 lanes each).
entity bitonic8 is
  port (
    in_lo  : in  std_logic_vector(31 downto 0);
    in_hi  : in  std_logic_vector(31 downto 0);
    out_lo : out std_logic_vector(31 downto 0);
    out_hi : out std_logic_vector(31 downto 0)
  );
end entity;
architecture rtl of bitonic8 is
  signal x0, x1, x2, x3, x4, x5, x6, x7 : std_logic_vector(7 downto 0);
  signal a0, a1, a2, a3, a4, a5, a6, a7 : std_logic_vector(7 downto 0);
  signal b0, b1, b2, b3, b4, b5, b6, b7 : std_logic_vector(7 downto 0);
  signal c0, c1, c2, c3, c4, c5, c6, c7 : std_logic_vector(7 downto 0);
  signal d0, d1, d2, d3, d4, d5, d6, d7 : std_logic_vector(7 downto 0);
  signal e0, e1, e2, e3, e4, e5, e6, e7 : std_logic_vector(7 downto 0);
  signal f0, f1, f2, f3, f4, f5, f6, f7 : std_logic_vector(7 downto 0);
begin
  x0 <= in_lo(7 downto 0);
  x1 <= in_lo(15 downto 8);
  x2 <= in_lo(23 downto 16);
  x3 <= in_lo(31 downto 24);
  x4 <= in_hi(7 downto 0);
  x5 <= in_hi(15 downto 8);
  x6 <= in_hi(23 downto 16);
  x7 <= in_hi(31 downto 24);

  -- Stage 1: sort pairs (alternating direction).
  s1a: entity work.cmpex port map (a => x0, b => x1, lo => a0, hi => a1);
  s1b: entity work.cmpex port map (a => x2, b => x3, lo => a3, hi => a2);
  s1c: entity work.cmpex port map (a => x4, b => x5, lo => a4, hi => a5);
  s1d: entity work.cmpex port map (a => x6, b => x7, lo => a7, hi => a6);

  -- Stage 2: bitonic merge of 4-element runs.
  s2a: entity work.cmpex port map (a => a0, b => a2, lo => b0, hi => b2);
  s2b: entity work.cmpex port map (a => a1, b => a3, lo => b1, hi => b3);
  s2c: entity work.cmpex port map (a => a4, b => a6, lo => b6, hi => b4);
  s2d: entity work.cmpex port map (a => a5, b => a7, lo => b7, hi => b5);

  s3a: entity work.cmpex port map (a => b0, b => b1, lo => c0, hi => c1);
  s3b: entity work.cmpex port map (a => b2, b => b3, lo => c2, hi => c3);
  s3c: entity work.cmpex port map (a => b4, b => b5, lo => c5, hi => c4);
  s3d: entity work.cmpex port map (a => b6, b => b7, lo => c7, hi => c6);

  -- Stage 3: final 8-element bitonic merge.
  s4a: entity work.cmpex port map (a => c0, b => c4, lo => d0, hi => d4);
  s4b: entity work.cmpex port map (a => c1, b => c5, lo => d1, hi => d5);
  s4c: entity work.cmpex port map (a => c2, b => c6, lo => d2, hi => d6);
  s4d: entity work.cmpex port map (a => c3, b => c7, lo => d3, hi => d7);

  s5a: entity work.cmpex port map (a => d0, b => d2, lo => e0, hi => e2);
  s5b: entity work.cmpex port map (a => d1, b => d3, lo => e1, hi => e3);
  s5c: entity work.cmpex port map (a => d4, b => d6, lo => e4, hi => e6);
  s5d: entity work.cmpex port map (a => d5, b => d7, lo => e5, hi => e7);

  s6a: entity work.cmpex port map (a => e0, b => e1, lo => f0, hi => f1);
  s6b: entity work.cmpex port map (a => e2, b => e3, lo => f2, hi => f3);
  s6c: entity work.cmpex port map (a => e4, b => e5, lo => f4, hi => f5);
  s6d: entity work.cmpex port map (a => e6, b => e7, lo => f6, hi => f7);

  out_lo <= f3 & f2 & f1 & f0;
  out_hi <= f7 & f6 & f5 & f4;
end architecture;
`

func TestBitonicSorter(t *testing.T) {
	m := compile(t, BitonicSorterVHDL, "bitonic8", nil)
	f := func(vals [8]uint8) bool {
		var lo, hi uint64
		for i := 0; i < 4; i++ {
			lo |= uint64(vals[i]) << (8 * i)
			hi |= uint64(vals[4+i]) << (8 * i)
		}
		m.SetInput("in_lo", lo)
		m.SetInput("in_hi", hi)
		m.Eval()
		want := append([]uint8(nil), vals[:]...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		olo, ohi := m.Peek("out_lo"), m.Peek("out_hi")
		for i := 0; i < 4; i++ {
			if uint8(olo>>(8*i)) != want[i] || uint8(ohi>>(8*i)) != want[4+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompileBitonic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Compile(BitonicSorterVHDL, "bitonic8", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBitonicEval(b *testing.B) {
	m, err := Compile(BitonicSorterVHDL, "bitonic8", nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SetInput("in_lo", uint64(i)*0x01010101)
		m.SetInput("in_hi", uint64(i)*0x10101010)
		m.Eval()
	}
}

func TestCaseWhenChoicesPipe(t *testing.T) {
	src := `
entity dec is
  port ( s : in std_logic_vector(1 downto 0); y : out std_logic_vector(3 downto 0) );
end entity;
architecture rtl of dec is
begin
  process(s)
  begin
    case s is
      when "00" | "11" => y <= "0001";
      when "01" => y <= "0010";
      when others => y <= "1000";
    end case;
  end process;
end architecture;
`
	m := compile(t, src, "dec", nil)
	want := map[uint64]uint64{0: 1, 3: 1, 1: 2, 2: 8}
	for in, w := range want {
		m.SetInput("s", in)
		m.Eval()
		if m.Peek("y") != w {
			t.Fatalf("s=%d: y=%d want %d", in, m.Peek("y"), w)
		}
	}
}

func TestSignalInitialValue(t *testing.T) {
	src := `
entity iv is
  port ( clk : in std_logic; q : out std_logic_vector(7 downto 0) );
end entity;
architecture rtl of iv is
  signal cnt : unsigned(7 downto 0) := x"30";
begin
  q <= std_logic_vector(cnt);
  process(clk) begin
    if rising_edge(clk) then cnt <= cnt + 1; end if;
  end process;
end architecture;
`
	m := compile(t, src, "iv", nil)
	if m.Peek("q") != 0x30 {
		t.Fatalf("initial q = %#x, want 0x30", m.Peek("q"))
	}
	m.Tick()
	if m.Peek("q") != 0x31 {
		t.Fatalf("q = %#x", m.Peek("q"))
	}
	m.Reset()
	if m.Peek("q") != 0x30 {
		t.Fatal("reset did not restore the initialiser")
	}
}

func TestCaseInsensitivity(t *testing.T) {
	src := `
ENTITY UpCase IS
  PORT ( A : IN STD_LOGIC; Y : OUT STD_LOGIC );
END ENTITY;
ARCHITECTURE RTL OF UpCase IS
BEGIN
  Y <= NOT A;
END ARCHITECTURE;
`
	m := compile(t, src, "upcase", nil)
	m.SetInput("a", 0)
	m.Eval()
	if m.Peek("y") != 1 {
		t.Fatal("case-insensitive elaboration failed")
	}
}
