package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestVCDIsComplete is the regression test for the truncated waveform: rtlsim
// dropped the VCD writer AttachVCD returns and closed the file without
// flushing it, so every waveform ended at a multiple of the writer's 4 KiB
// buffer — for the sorter, in the middle of the header. The file must hold
// the whole header, parse record by record to its last byte, and end with
// the value changes of the cycle the inputs were applied on.
func TestVCDIsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "rtlsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	vcdPath := filepath.Join(dir, "sorter.vcd")
	out, err := exec.Command(bin, "-top", "bitonic8", "-cycles", "200",
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
