// Package rtlc is the optimizing RTL engine: a compiler from the rtl.Circuit
// IR to a flat register-machine bytecode plus a dense switch-dispatch VM with
// word-packed value storage that runs a piece of the circuit — a wire's
// assignment, a register's next-state function, a memory's write ports —
// only on cycles where a value it reads has changed.
//
// It registers itself with the rtl package as the "bytecode" engine
// (rtl.EngineBytecode) in an init function, so linking this package in —
// directly or via a blank import — makes rtl.CompileEngine(c, "bytecode")
// work. The closure-compiled engine in package rtl remains the bit-exact
// reference; this engine must be, and is continuously tested to be,
// dispatch-identical to it on every architectural observable (signal values,
// memories, VCD traces, checkpoints, state hashes, fault-injection
// outcomes). See DESIGN.md §"RTL compiler pipeline" for the IR →
// optimization passes → bytecode → VM walk-through.
package rtlc

import "gem5rtl/internal/rtl"

func init() {
	rtl.RegisterEngine(rtl.EngineBytecode, func(c *rtl.Circuit, mems [][]uint64) (rtl.Backend, error) {
		p, err := Compile(c)
		if err != nil {
			return nil, err
		}
		return NewVM(p, mems)
	})
}
