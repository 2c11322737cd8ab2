package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gem5rtl/internal/conform"
	"gem5rtl/internal/pmu"
	"gem5rtl/internal/rtl"
	"gem5rtl/internal/verilog"
	"gem5rtl/internal/vhdl"
)

// TestVCDIsComplete is the regression test for the truncated waveform:
// gem5rtl rtlsim dropped the VCD writer AttachVCD returns and closed the file
// without flushing it, so every waveform ended at a multiple of the writer's 4 KiB
// buffer — for the sorter, in the middle of the header. The file must hold
// the whole header, parse record by record to its last byte, and end with
// the value changes of the cycle the inputs were applied on.
func TestVCDIsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := buildBinary(t, dir)
	vcdPath := filepath.Join(dir, "sorter.vcd")
	out, err := exec.Command(bin, "rtlsim", "-top", "bitonic8", "-cycles", "200",
		"-set", "in_lo=0x01020304", "-set", "in_hi=0x05060708", "-vcd", vcdPath,
		filepath.Join("..", "..", "examples", "bitonic-vhdl", "sorter.vhd")).CombinedOutput()
	if err != nil {
		t.Fatalf("rtlsim: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "out_lo                   = 0x4030201") {
		t.Fatalf("unexpected result:\n%s", out)
	}
	data, err := os.ReadFile(vcdPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data)%4096 == 0 {
		t.Errorf("VCD is %d bytes, a whole number of 4 KiB buffers", len(data))
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatalf("VCD does not end on a record boundary")
	}

	// Re-parse: declarations, then timestamps and value records only.
	ids := map[string]string{} // VCD identifier -> signal name
	last := map[string]string{}
	var stamps []uint64
	var afterLastStamp int
	body := false
	for n, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		f := strings.Fields(line)
		switch {
		case !body:
			if len(f) >= 5 && f[0] == "$var" {
				ids[f[3]] = f[4]
			}
			body = line == "$enddefinitions $end"
		case line == "$dumpvars" || line == "$end":
		case strings.HasPrefix(line, "#"):
			ts, err := strconv.ParseUint(line[1:], 10, 64)
			if err != nil {
				t.Fatalf("line %d: bad timestamp %q", n+1, line)
			}
			stamps = append(stamps, ts)
			afterLastStamp = 0
		case len(f) == 2 && f[0][0] == 'b' && ids[f[1]] != "":
			if _, err := strconv.ParseUint(f[0][1:], 2, 64); err != nil {
				t.Fatalf("line %d: bad vector value %q", n+1, line)
			}
			last[ids[f[1]]] = f[0][1:]
			afterLastStamp++
		case len(f) == 1 && (line[0] == '0' || line[0] == '1') && ids[line[1:]] != "":
			last[ids[line[1:]]] = line[:1]
			afterLastStamp++
		default:
			t.Fatalf("line %d does not parse as a VCD record: %q", n+1, line)
		}
	}
	if !body {
		t.Fatal("VCD ends inside its header")
	}
	if len(ids) < 40 {
		t.Errorf("only %d signals declared", len(ids))
	}
	// The inputs change once, on the first cycle, and the network is
	// combinational: the dump of cycle 1 is the last one and carries the
	// sorted outputs.
	if len(stamps) == 0 || stamps[len(stamps)-1] != 1 || afterLastStamp == 0 {
		t.Errorf("timestamps %v with %d value changes after the last: want the file to end with cycle 1's changes", stamps, afterLastStamp)
	}
	for name, want := range map[string]uint64{"out_lo": 0x04030201, "out_hi": 0x08070605} {
		if got, _ := strconv.ParseUint(last[name], 2, 64); got != want {
			t.Errorf("last value of %s in the waveform is %#x, want %#x", name, got, want)
		}
	}
}

// counterV and counterVHDL are the front-end suites' counters.
const counterV = `
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

// TestSleepingMatchesPerCycle: gem5rtl rtlsim applies the stretches a
// model's held inputs leave in closed form. On the committed designs — the
// bitonic sorter, the PMU (programming its enable register every cycle, so that the
// cycle counter counts) and the front-end suites' counters — the run must
// end with the outputs, VCD bytes and checkpoint bytes of the run that ticks
// every cycle, with and without a waveform.
func TestSleepingMatchesPerCycle(t *testing.T) {
	sorter, err := os.ReadFile(filepath.Join("..", "..", "examples", "bitonic-vhdl", "sorter.vhd"))
	if err != nil {
		t.Fatal(err)
	}
	designs := []struct {
		name, top, src string
		vhdl           bool
		set            map[string]uint64
		cycles         uint64
	}{
		{"sorter", "bitonic8", string(sorter), true, map[string]uint64{"in_lo": 0x01020304, "in_hi": 0x05060708}, 200},
		{"pmu", "pmu", pmu.VerilogSource(pmu.NumCounters), false,
			map[string]uint64{"events": 0x3F, "awvalid": 1, "awaddr": pmu.RegEnable, "wdata": 0x3F, "araddr": 4 * pmu.EvCycle}, 5000},
		{"pmu-reset", "pmu", pmu.VerilogSource(pmu.NumCounters), false, map[string]uint64{"rst": 1, "events": 0x20}, 300},
		{"counter-v", "counter", counterV, false, map[string]uint64{"en": 1}, 300},
		{"counter-v-idle", "counter", counterV, false, nil, 300},
		{"counter-vhdl", "counter", counterVHDL, true, map[string]uint64{"en": 1}, 300},
	}
	compile := func(vhdlSrc bool, src, top string) *rtl.Model {
		var m *rtl.Model
		var err error
		if vhdlSrc {
			m, err = vhdl.Compile(src, top, nil)
		} else {
			m, err = verilog.Compile(src, top, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, d := range designs {
		for _, wave := range []bool{false, true} {
			var vcd, ckpt [2]bytes.Buffer
			var models [2]*rtl.Model
			var applied uint64
			for i := range models {
				m := compile(d.vhdl, d.src, d.top)
				var v *rtl.VCDWriter
				if wave {
					v = m.AttachVCD(&vcd[i], 1)
				}
				for name, val := range d.set {
					m.SetInput(name, val)
				}
				if i == 0 {
					applied = simulate(m, d.cycles)
				} else {
					for c := uint64(0); c < d.cycles; c++ {
						m.Tick()
					}
				}
				m.Eval()
				if v != nil {
					if err := v.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				ckpt[i].Write(conform.Save(t, m))
				models[i] = m
			}
			t.Logf("%s, waveform %v: %d of %d cycles applied in closed form", d.name, wave, applied, d.cycles)
			for id, sg := range models[0].Circuit().Signals {
				if a, b := models[0].PeekID(rtl.SigID(id)), models[1].PeekID(rtl.SigID(id)); a != b {
					t.Errorf("%s, waveform %v: %s = %#x, per-cycle %#x", d.name, wave, sg.Name, a, b)
				}
			}
			if !bytes.Equal(vcd[0].Bytes(), vcd[1].Bytes()) {
				t.Errorf("%s: VCD of %d bytes, per-cycle %d, not the same", d.name, vcd[0].Len(), vcd[1].Len())
			}
			if !bytes.Equal(ckpt[0].Bytes(), ckpt[1].Bytes()) {
				t.Errorf("%s, waveform %v: checkpoint differs from the per-cycle run's", d.name, wave)
			}
			if d.name == "pmu" && applied < d.cycles*9/10 {
				t.Errorf("pmu: only %d of %d cycles applied in closed form", applied, d.cycles)
			}
		}
	}
}

// savedFile is a checkpoint file's bytes as a conform.Saver.
type savedFile []byte

func (f savedFile) Save(w io.Writer) error {
	_, err := w.Write(f)
	return err
}

// TestStandaloneCheckpointPinned holds the model checkpoints gem5rtl rtlsim
// -checkpoint writes, for the bitonic sorter and for the PMU (its enable
// register written every cycle), to their SHA-256 and state digest. It runs
// the command's own flag set, so the pin holds the file format whatever code
// writes it. A different hash means the bytes moved, not that the constant
// needs refreshing.
func TestStandaloneCheckpointPinned(t *testing.T) {
	dir := t.TempDir()
	pmuSrc := filepath.Join(dir, "pmu.v")
	if err := os.WriteFile(pmuSrc, []byte(pmu.VerilogSource(pmu.NumCounters)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		args      []string
		sha256    string
		stateHash uint64
	}{
		{"bitonic8", []string{"-top", "bitonic8", "-cycles", "200",
			"-set", "in_lo=0x01020304", "-set", "in_hi=0x05060708",
			filepath.Join("..", "..", "examples", "bitonic-vhdl", "sorter.vhd")},
			"b6c513f25fec6a3ad8757d36b8f377408fb77286755a5853e5dc1ec2b4f60686", 0x2bf584f16c7ec2e},
		{"pmu", []string{"-top", "pmu", "-cycles", "5000",
			"-set", "events=0x3F", "-set", "awvalid=1", "-set", fmt.Sprintf("awaddr=%d", pmu.RegEnable),
			"-set", "wdata=0x3F", "-set", fmt.Sprintf("araddr=%d", 4*pmu.EvCycle), pmuSrc},
			"7be594c64283e57209d02de13da5428d46a4d2c7fb2f1acf95169c8f7373f109", 0x3fc1757f2d7cf116},
	} {
		out := filepath.Join(dir, c.name+".ckpt")
		fs, run := rtlsim()
		if err := fs.Parse(append([]string{"-checkpoint", out}, c.args...)); err != nil {
			t.Fatal(err)
		}
		run()
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != c.sha256 {
			t.Errorf("%s: sha256 = %s, pinned %s", c.name, got, c.sha256)
		}
		if got := conform.Digest(t, savedFile(data)); got != c.stateHash {
			t.Errorf("%s: state digest = %#x, pinned %#x", c.name, got, c.stateHash)
		}
	}
}
