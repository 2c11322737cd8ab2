package hdl_test

import (
	"hash/fnv"
	"strings"
	"testing"

	"gem5rtl/internal/hdl"
	"gem5rtl/internal/pmu"
	"gem5rtl/internal/rtl"
	"gem5rtl/internal/verilog"
	"gem5rtl/internal/vhdl"
)

// fuzzCycles is how many random-input cycles an accepted design runs.
const fuzzCycles = 32

// FuzzVerilog feeds arbitrary text to the Verilog front end. Every input
// must return without a panic or hang, and every design it accepts must
// run in lockstep with the reference evaluator.
func FuzzVerilog(f *testing.F) {
	f.Add(pmu.VerilogSource(pmu.NumCounters))
	f.Add(pmu.VerilogSource(4))
	// The quickstart example's design, embedded in its main.go.
	main := readFile(f, "../../examples/quickstart/main.go")
	_, src, _ := strings.Cut(main, "const src = `")
	src, _, _ = strings.Cut(src, "`")
	f.Add(src)
	addCrashInputs(f, "verilog")
	f.Fuzz(func(t *testing.T, src string) { fuzzDesign(t, src, verilog.Parse, verilog.Compile) })
}

// FuzzVHDL is FuzzVerilog for the VHDL front end.
func FuzzVHDL(f *testing.F) {
	f.Add(readFile(f, sorterPath))
	addCrashInputs(f, "vhdl")
	f.Fuzz(func(t *testing.T, src string) { fuzzDesign(t, src, vhdl.Parse, vhdl.Compile) })
}

func addCrashInputs(f *testing.F, lang string) {
	for _, c := range crashInputs {
		if c.lang == lang {
			f.Add(c.src)
		}
	}
}

// fuzzDesign compiles src with its last module as the top and, if that
// succeeds, drives fuzzCycles cycles of random inputs through rtl.Lockstep,
// which compares the VM with the reference on every signal and memory word.
func fuzzDesign(t *testing.T, src string, parse func(string) (*hdl.Design, error),
	compile func(src, top string, overrides map[string]int64) (*rtl.Model, error)) {
	d, err := parse(src)
	if err != nil {
		return
	}
	m, err := compile(src, d.Modules[len(d.Modules)-1].Name, nil)
	if err != nil {
		return
	}
	l := rtl.NewLockstep(m, t.Fatalf)
	var inputs []string
	for _, s := range m.Circuit().Signals {
		if s.Kind == rtl.SigInput {
			inputs = append(inputs, s.Name)
		}
	}
	h := fnv.New64a()
	h.Write([]byte(src))
	x := h.Sum64() | 1
	for i := 0; i < fuzzCycles; i++ {
		for _, in := range inputs {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			l.SetInput(in, x)
		}
		l.Tick()
	}
}
