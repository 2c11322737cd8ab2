package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/cli"
	"gem5rtl/internal/prof"
	"gem5rtl/internal/rtl"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/verilog"
	"gem5rtl/internal/vhdl"
)

// rtlsim is the standalone HDL simulator — the "Verilator / GHDL" entry
// point of the toolflow. It compiles a Verilog (.v/.sv) or VHDL (.vhd/.vhdl)
// source file into a cycle-accurate model, optionally drives constant input
// values, simulates N cycles, and prints the final outputs and how many of
// the cycles were applied in closed form: with its inputs held, a model
// often only counts, and such stretches are applied without running them,
// waveform records included. With -vcd it writes a waveform file; with
// -checkpoint/-restore it saves and resumes model state.
//
//	gem5rtl rtlsim -top counter -set en=1 -cycles 100 design.v
//	gem5rtl rtlsim -top bitonic8 -set in_lo=0x04030201 -vcd waves.vcd sorter.vhd
func rtlsim() (*flag.FlagSet, func()) {
	fs := flag.NewFlagSet("gem5rtl rtlsim", flag.ExitOnError)
	top := fs.String("top", "", "top module/entity name (required)")
	cycles := fs.Int("cycles", 10, "clock cycles to simulate")
	vcdPath := fs.String("vcd", "", "write a VCD waveform to this file")
	ckptPath := fs.String("checkpoint", "", "save model state here after the run")
	restPath := fs.String("restore", "", "restore model state from here before the run")
	var sets []string
	fs.Func("set", "drive input: name=value (repeatable)", func(s string) error {
		sets = append(sets, s)
		return nil
	})
	// -self-profile splits the model's time into its comb/seq/memw phases.
	fl := cli.Register(fs, cli.SelfProfile|cli.SelfProfileOut|cli.Pprof)
	return fs, func() {
		if fs.NArg() != 1 || *top == "" {
			fmt.Fprintln(os.Stderr, "usage: gem5rtl rtlsim -top NAME [flags] design.{v,sv,vhd,vhdl}")
			fs.PrintDefaults()
			os.Exit(2)
		}
		fl.Setup()
		path := fs.Arg(0)
		src, err := os.ReadFile(path)
		if err != nil {
			cli.Fatal(err)
		}

		var model *rtl.Model
		switch {
		case strings.HasSuffix(path, ".v") || strings.HasSuffix(path, ".sv"):
			model, err = verilog.Compile(string(src), *top, nil)
		case strings.HasSuffix(path, ".vhd") || strings.HasSuffix(path, ".vhdl"):
			model, err = vhdl.Compile(string(src), *top, nil)
		default:
			err = fmt.Errorf("unknown HDL extension on %q (want .v/.sv/.vhd/.vhdl)", path)
		}
		if err != nil {
			cli.Fatal(err)
		}

		// A standalone model has no event queue; a fresh one hosts the
		// profiler so the model's phonebook of phase owners and the export
		// formats are the same ones the full-system runs use.
		var profQ *sim.EventQueue
		if fl.SelfProfile > 0 {
			profQ = sim.NewEventQueue()
			p := profQ.AttachProfiler(fl.SelfProfile)
			model.AttachProfiler(p,
				profQ.Owner(*top, "rtl-comb"),
				profQ.Owner(*top, "rtl-seq"),
				profQ.Owner(*top, "rtl-memw"))
		}

		if *restPath != "" {
			f, err := os.Open(*restPath)
			if err != nil {
				cli.Fatal(err)
			}
			if err := model.Checkpoint(ckpt.Restoring(ckpt.NewReader(f))); err != nil {
				cli.Fatal(fmt.Errorf("restoring %s: %w", *restPath, err))
			}
			f.Close()
		}
		var vcdFile *os.File
		var vcd *rtl.VCDWriter
		if *vcdPath != "" {
			vcdFile, err = os.Create(*vcdPath)
			if err != nil {
				cli.Fatal(err)
			}
			vcd = model.AttachVCD(vcdFile, 1)
		}
		for _, s := range sets {
			name, val, ok := strings.Cut(s, "=")
			if !ok {
				cli.Fatal(fmt.Errorf("bad -set %q (want name=value)", s))
			}
			v, err := strconv.ParseUint(strings.TrimPrefix(val, "0x"), base(val), 64)
			if err != nil {
				cli.Fatal(fmt.Errorf("bad value in -set %q: %v", s, err))
			}
			model.SetInput(name, v)
		}

		applied := simulate(model, uint64(max(*cycles, 0)))
		model.Eval()

		fmt.Printf("# %s after %d cycles\n", *top, model.Cycle())
		c := model.Circuit()
		for _, sig := range c.Signals {
			if sig.Kind == rtl.SigOutput {
				fmt.Printf("%-24s = 0x%x (%d)\n", sig.Name, model.Peek(sig.Name), model.Peek(sig.Name))
			}
		}
		fmt.Printf("%d of %d cycles applied in closed form\n", applied, max(*cycles, 0))

		if vcdFile != nil {
			// The writer buffers: without the flush the file ends at the
			// last full 4 KiB block.
			if err := vcd.Flush(); err != nil {
				cli.Fatal(fmt.Errorf("writing %s: %w", *vcdPath, err))
			}
			if err := vcdFile.Close(); err != nil {
				cli.Fatal(fmt.Errorf("writing %s: %w", *vcdPath, err))
			}
		}
		if profQ != nil {
			fl.Attribute(prof.FromQueue(profQ))
			fl.ExportProfile()
		}
		if *ckptPath != "" {
			f, err := os.Create(*ckptPath)
			if err != nil {
				cli.Fatal(err)
			}
			// The model's stream, bare: no system header, no trailer.
			w := ckpt.NewWriter(f)
			if err := model.Checkpoint(ckpt.Saving(w)); err != nil {
				cli.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				cli.Fatal(err)
			}
			f.Close()
		}
	}
}

// simulate runs the model for cycles clock cycles with its inputs held:
// after each real Tick it asks for the stretch the held inputs leave
// (rtl.Model.Quiet) and applies as much of it as the run has left in closed
// form. It returns how many cycles it applied so.
func simulate(m *rtl.Model, cycles uint64) (applied uint64) {
	for left := cycles; left > 0; {
		m.Tick()
		left--
		if k := min(m.Quiet(rtl.Vary{}), left); k > 0 {
			m.Advance(k, nil)
			left -= k
			applied += k
		}
	}
	return applied
}

func base(val string) int {
	if strings.HasPrefix(val, "0x") {
		return 16
	}
	return 10
}
