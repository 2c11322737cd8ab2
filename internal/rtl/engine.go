package rtl

import (
	"fmt"
	"sort"

	"gem5rtl/internal/sim"
)

// Model is a compiled, simulatable instance of a Circuit — the analogue of a
// Verilated model object. It owns the architectural state surface (Peek,
// SetInput, VCD, checkpoints, fault injection); a Backend advances that state
// one cycle at a time. Model is not safe for concurrent use.
type Model struct {
	c     *Circuit
	vals  []uint64 // aliases backend.Vals()
	masks []uint64
	mems  [][]uint64
	cycle uint64

	backend Backend

	inputs  map[string]SigID
	outputs map[string]SigID

	vcd *VCDWriter
}

// PhaseProfiled is implemented by backends that sub-attribute their tick
// phases (comb settle, sequential update, memory write ports) to the
// self-profiler. The reference evaluator does not.
type PhaseProfiled interface {
	AttachProfiler(p *sim.Profiler, comb, seq, memw sim.OwnerID)
}

// AttachProfiler enables per-phase self-profiling of this model's ticks:
// host time inside Tick is sub-attributed to the given comb/seq/memw owners
// so an RTL-heavy simulation point reads "nvdla0/rtl-comb" rather than just
// "slow". Phase counts reflect the work the backend really did (an
// activity-gated backend enters fewer phases), while results stay bit-exact.
func (m *Model) AttachProfiler(p *sim.Profiler, comb, seq, memw sim.OwnerID) {
	if b, ok := m.backend.(PhaseProfiled); ok {
		b.AttachProfiler(p, comb, seq, memw)
	}
}

// Compile validates and instantiates a circuit on the reference evaluator
// (reference.go) — what tests compare the production engine against. Every
// binary and library entry point builds its models with rtlc.NewModel.
func Compile(c *Circuit) (*Model, error) { return CompileWith(c, newReference) }

// CompileWith validates a circuit and instantiates it on the backend build
// returns. Whatever the backend, the Model's architectural surface is the
// same: values, VCD, checkpoints and state hashes are bit-exact.
func CompileWith(c *Circuit, build EngineBuilder) (*Model, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		c:       c,
		masks:   make([]uint64, len(c.Signals)),
		mems:    make([][]uint64, len(c.Mems)),
		inputs:  map[string]SigID{},
		outputs: map[string]SigID{},
	}
	for i, s := range c.Signals {
		m.masks[i] = Mask(s.Width)
		switch s.Kind {
		case SigInput:
			m.inputs[s.Name] = SigID(i)
		case SigOutput:
			m.outputs[s.Name] = SigID(i)
		}
	}
	for i, mem := range c.Mems {
		m.mems[i] = make([]uint64, mem.Depth)
	}
	be, err := build(c, m.mems)
	if err != nil {
		return nil, err
	}
	if got := len(be.Vals()); got != len(c.Signals) {
		return nil, fmt.Errorf("rtl: backend returned %d value slots for %d signals", got, len(c.Signals))
	}
	m.vals, m.backend = be.Vals(), be
	m.Reset()
	return m, nil
}

// MustCompile is Compile panicking on error; for tests.
func MustCompile(c *Circuit) *Model {
	m, err := Compile(c)
	if err != nil {
		panic(err)
	}
	return m
}

// SeqSkips reports how many sequential next-state evaluations the backend
// has elided through activity gating since compile (always 0 on the
// reference). Skips are a pure performance effect; they never change
// simulation results.
func (m *Model) SeqSkips() uint64 { return m.backend.Skipped() }

// levelize orders combinational assignments so every assignment runs after
// the assignments producing the signals it reads. Registers and inputs are
// sources and impose no ordering. Returns an error naming a signal on any
// combinational cycle.
func levelize(c *Circuit) ([]int, error) {
	producer := make(map[SigID]int, len(c.Combs)) // signal -> comb index
	for i, a := range c.Combs {
		producer[a.Dst] = i
	}
	adj := make([][]int, len(c.Combs)) // edges: dependency -> dependent
	indeg := make([]int, len(c.Combs))
	var deps []SigID
	for i, a := range c.Combs {
		deps = deps[:0]
		deps = collectRefs(a.Src, deps)
		seen := map[int]bool{}
		for _, d := range deps {
			if p, ok := producer[d]; ok && !seen[p] {
				seen[p] = true
				adj[p] = append(adj[p], i)
				indeg[i]++
			}
		}
	}
	// Kahn's algorithm with deterministic ordering.
	ready := make([]int, 0, len(c.Combs))
	for i := range c.Combs {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	sort.Ints(ready)
	order := make([]int, 0, len(c.Combs))
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		for _, d := range adj[n] {
			indeg[d]--
			if indeg[d] == 0 {
				ready = append(ready, d)
			}
		}
	}
	if len(order) != len(c.Combs) {
		for i := range c.Combs {
			if indeg[i] > 0 {
				return nil, fmt.Errorf("rtl: combinational loop through signal %q",
					c.Signals[c.Combs[i].Dst].Name)
			}
		}
	}
	return order, nil
}

// collectRefs appends the IDs of all signals read by e.
func collectRefs(e Expr, out []SigID) []SigID {
	switch v := e.(type) {
	case *Const:
	case *Ref:
		out = append(out, v.Sig)
	case *Unary:
		out = collectRefs(v.X, out)
	case *Binary:
		out = collectRefs(v.X, out)
		out = collectRefs(v.Y, out)
	case *Mux:
		out = collectRefs(v.Cond, out)
		out = collectRefs(v.T, out)
		out = collectRefs(v.F, out)
	case *Slice:
		out = collectRefs(v.X, out)
	case *Index:
		out = collectRefs(v.X, out)
		out = collectRefs(v.Bit, out)
	case *Concat:
		for _, p := range v.Parts {
			out = collectRefs(p, out)
		}
	case *MemRead:
		out = collectRefs(v.Addr, out)
	}
	return out
}

// Circuit returns the underlying circuit.
func (m *Model) Circuit() *Circuit { return m.c }

// Cycle returns the number of Tick calls since the last Reset.
func (m *Model) Cycle() uint64 { return m.cycle }

// Reset restores every register to its Init value, re-initialises memories,
// zeroes inputs, and settles the combinational logic — the `reset` entry
// point the paper requires every shared-library wrapper to provide.
func (m *Model) Reset() {
	// Every signal starts at its Init value (zero for wires and inputs;
	// seq-driven outputs carry a register init like any other flop). The
	// Eval below overwrites comb-driven signals.
	for i, s := range m.c.Signals {
		m.vals[i] = s.Init & m.masks[i]
	}
	for i, mem := range m.c.Mems {
		words := m.mems[i]
		for j := range words {
			words[j] = 0
		}
		copy(words, mem.Init)
	}
	m.cycle = 0
	m.backend.Invalidate()
	m.Eval()
}

// SetInput drives an input port; panics on unknown name or non-input.
func (m *Model) SetInput(name string, val uint64) {
	id, ok := m.inputs[name]
	if !ok {
		panic(fmt.Sprintf("rtl: %q is not an input of %q", name, m.c.Name))
	}
	m.vals[id] = val & m.masks[id]
}

// SetInputID drives an input by ID (fast path for wrappers).
func (m *Model) SetInputID(id SigID, val uint64) { m.vals[id] = val & m.masks[id] }

// InputID resolves an input port name to its SigID.
func (m *Model) InputID(name string) SigID {
	id, ok := m.inputs[name]
	if !ok {
		panic(fmt.Sprintf("rtl: %q is not an input of %q", name, m.c.Name))
	}
	return id
}

// OutputID resolves an output port name to its SigID.
func (m *Model) OutputID(name string) SigID {
	id, ok := m.outputs[name]
	if !ok {
		panic(fmt.Sprintf("rtl: %q is not an output of %q", name, m.c.Name))
	}
	return id
}

// Peek reads any signal's current value by name; panics on unknown name.
func (m *Model) Peek(name string) uint64 {
	id := m.c.SignalByName(name)
	if id < 0 {
		panic(fmt.Sprintf("rtl: no signal %q in %q", name, m.c.Name))
	}
	return m.vals[id]
}

// PeekID reads any signal's current value by ID.
func (m *Model) PeekID(id SigID) uint64 { return m.vals[id] }

// PeekMem reads a memory word (for testbenches); out of range reads zero.
func (m *Model) PeekMem(id MemID, addr int) uint64 {
	w := m.mems[id]
	if addr < 0 || addr >= len(w) {
		return 0
	}
	return w[addr]
}

// PokeMem writes a memory word directly (testbench backdoor).
func (m *Model) PokeMem(id MemID, addr int, val uint64) {
	w := m.mems[id]
	if addr >= 0 && addr < len(w) {
		w[addr] = val & Mask(m.c.Mems[id].Width)
		m.backend.Invalidate()
	}
}

// Eval settles the combinational logic against current inputs and register
// state: one pass over the assignments in levelised order.
func (m *Model) Eval() { m.backend.Eval() }

// EvalIterative is the naive fixed-point evaluation strategy kept as the
// check on levelisation itself and for the ablation benchmark in DESIGN.md
// (§5.1): it re-evaluates all combinational assignments in declaration order,
// with the reference's expression semantics, until no value changes.
func (m *Model) EvalIterative() int {
	r := reference{vals: m.vals, mems: m.mems}
	passes := 0
	for {
		passes++
		changed := false
		for i := range m.c.Combs {
			a := &m.c.Combs[i]
			nv := r.eval(a.Src) & m.masks[a.Dst]
			if nv != m.vals[a.Dst] {
				m.vals[a.Dst] = nv
				changed = true
			}
		}
		if !changed || passes > len(m.c.Combs)+2 {
			return passes
		}
	}
}

// Tick advances the model one clock cycle: settle combinational logic,
// capture every register's next value and memory write using pre-edge
// state, commit, and settle again so outputs reflect the new state. This is
// the `tick` entry point of the paper's shared-library interface.
func (m *Model) Tick() {
	m.backend.Tick()
	m.cycle++
	if m.vcd != nil && m.vcd.enabled {
		m.vcd.dump(m)
	}
}
