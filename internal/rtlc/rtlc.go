// Package rtlc is the RTL engine: a compiler from the rtl.Circuit IR to a
// flat register-machine bytecode plus a dense switch-dispatch VM with
// word-packed value storage that runs a piece of the circuit — a wire's
// assignment, a register's next-state function, a memory's write ports —
// only on cycles where a value it reads has changed.
//
// NewModel is how every front end, model wrapper and binary instantiates a
// circuit. The tree-walking evaluator in package rtl (rtl.Compile) defines
// the semantics; this engine must be, and is continuously tested to be,
// identical to it on every architectural observable (signal values,
// memories, VCD traces, checkpoints, state hashes, fault-injection
// outcomes). See DESIGN.md §"RTL compiler pipeline" for the IR →
// optimization passes → bytecode → VM walk-through.
package rtlc

import "gem5rtl/internal/rtl"

// NewModel compiles a circuit to bytecode and instantiates it on a VM.
func NewModel(c *rtl.Circuit) (*rtl.Model, error) {
	p, err := Compile(c)
	if err != nil {
		return nil, err
	}
	return Instantiate(c, p)
}

// Instantiate builds a model of c on a VM running p, a program Compile made
// from c. Nothing writes a Program once it is compiled, so any number of
// models may run one at the same time; each VM has its own register file.
func Instantiate(c *rtl.Circuit, p *Program) (*rtl.Model, error) {
	return rtl.CompileWith(c, func(_ *rtl.Circuit, mems [][]uint64) (rtl.Backend, error) {
		return NewVM(p, mems)
	})
}
