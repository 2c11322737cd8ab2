package rtl

import (
	"fmt"
	"math/bits"
)

// Engine names one of the two evaluators a Circuit can be instantiated on.
// It is not a user-facing choice — every binary and library entry point runs
// the bytecode VM — and exists for two readers of pmu.CompileModelEngine and
// pmu.NewWrapperEngine only: bench/probes.go, which passes EngineBytecode
// and pins the type, the constant and those two signatures until the
// benchmark PR that may edit bench/ drops them, and tests, which pass
// EngineReference to build what they compare the VM against.
type Engine string

const (
	// EngineBytecode is the production engine: internal/rtlc's optimizing
	// compiler and activity-scheduled register-machine VM (rtlc.NewModel).
	EngineBytecode Engine = "bytecode"
	// EngineReference is the tree-walking evaluator of reference.go
	// (Compile): the definition of the semantics, run by tests only.
	EngineReference Engine = "reference"
)

// Backend is the per-cycle evaluation core behind a Model. The Model keeps
// ownership of the architectural state surface (Peek/SetInput, VCD,
// checkpoints, fault injection); the backend owns how that state advances.
// There are two: the VM in internal/rtlc, which everything runs, and the
// reference evaluator in this package, which tests compare it against.
//
//   - Vals returns the signal-value storage, one uint64 per circuit signal.
//     The Model adopts this slice as its value store, so external reads and
//     writes (SetInput, checkpoint restore, bit flips) are immediately
//     visible to the backend and vice versa — no synchronisation step.
//   - Eval settles the combinational logic against current inputs, register
//     and memory state, as one pass in levelised order would.
//   - Tick performs one full clock cycle minus the Model-side bookkeeping:
//     Eval, capture of register next-state and memory writes with pre-edge
//     values, commit, Eval. The Model increments the cycle counter and dumps
//     VCD afterwards.
//   - Invalidate tells the backend the Model mutated state behind its back
//     (Reset, checkpoint restore, fault injection, memory poke), so any
//     activity-gating state must be discarded. Input pokes via SetInput do
//     not require Invalidate; backends detect them by snapshotting inputs.
//   - Skipped reports how many sequential next-state evaluations the backend
//     elided through activity gating (0 for an ungated backend). Skipping
//     must never change results — it is observable only through this counter
//     and wall-clock time.
//   - Changed returns a bitset over the signals, bit i of word i/64 for
//     signal i, in which every signal whose value changed since its bit was
//     last cleared — by evaluation, by Advance, by an Invalidate — has its
//     bit set; a set bit need not mean a change. The caller clears the bits
//     it has handled. The VCD writer walks it instead of comparing every
//     signal: the VM's names what it changed, the reference's every signal.
type Backend interface {
	// Vals returns the backing signal-value slice (len == number of signals).
	Vals() []uint64
	// Eval settles combinational logic.
	Eval()
	// Tick advances one clock: eval, capture, commit, eval.
	Tick()
	// Invalidate discards activity-gating state after an external mutation.
	Invalidate()
	// Skipped counts sequential updates elided by activity gating.
	Skipped() uint64
	// Changed is the set of signals that may have changed.
	Changed() []uint64
}

// ClosedForm is an optional Backend capability: a backend that can find, in
// the state a Tick left, a stretch of coming cycles it can apply without
// running them. The VM has it (rtlc.VM.Quiet); the reference does not, and
// is the per-cycle machine tests hold it to.
//
//   - Quiet(vary, trace) returns k: with every input held at its current
//     value except the bits vary names, which may take any value on any
//     cycle, the next k Ticks change no output and nothing Advance does not
//     reproduce. k is ^uint64(0) when only an input can end the stretch, 0
//     when the backend cannot say. The zero Vary is the stretch with every
//     input held. With trace set, k is also 0 unless every signal the
//     stretch moves has a Move in Plan, as a waveform must record it.
//   - Plan, after a Quiet with trace set, lists the signals the stretch
//     moves, ordered by kind and, within a kind, by signal index: the order
//     a cycle's values are computed in (MoveKind).
//   - Advance(n, log), 1 <= n <= what is left of the last Quiet's k, has
//     exactly the effect on values, memories and activity state of n such
//     Ticks over the inputs log records, one of its cycles per Tick (log is
//     nil when nothing varies). Any evaluation (Eval, Tick) or Invalidate
//     ends the stretch.
type ClosedForm interface {
	Quiet(vary Vary, trace bool) uint64
	Plan() []Move
	Advance(n uint64, log *Log)
}

// MoveKind is how a closed-form stretch moves a signal. The kinds are in the
// order one cycle's values are computed: a counted register adds what a
// pipelined register held on the cycle before, every other kind reads the
// cycle's own values.
type MoveKind uint8

const (
	// MoveCounted is a register that adds, every cycle, one for each of its
	// Terms that is set, mod Mask + 1.
	MoveCounted MoveKind = iota + 1
	// MovePipelined is a register whose program reads varying inputs and
	// known values only: Base | (x >> Sh) & Step, x the varying input Src on
	// the same cycle.
	MovePipelined
	// MoveVarying is a varying input, or a wire computed afresh every cycle:
	// Base | (x >> Sh) & Step, x what Src holds on the same cycle, a varying
	// input or a pipelined register.
	MoveVarying
	// MoveCopy is a wire that holds the counted register Src, & Mask.
	MoveCopy
	// MoveAffine is a signal that adds Step every cycle, mod Mask + 1.
	MoveAffine
)

// String names the kind as the analysis does.
func (k MoveKind) String() string {
	switch k {
	case MoveCounted:
		return "counted"
	case MovePipelined:
		return "pipelined"
	case MoveVarying:
		return "varying"
	case MoveCopy:
		return "copy"
	case MoveAffine:
		return "affine"
	}
	return fmt.Sprintf("MoveKind(%d)", uint8(k))
}

// Move is one signal a closed-form stretch moves, and how (MoveKind): from
// the value it holds when the stretch starts, cycle by cycle.
type Move struct {
	Sig, Src         SigID
	Kind             MoveKind
	Sh               uint8
	Base, Step, Mask uint64
	Terms            []Term
}

// Term is one bit a counted register adds each cycle: bit Bit of Sig, a
// varying input on the same cycle or a pipelined register on the cycle
// before.
type Term struct {
	Sig SigID
	Bit uint8
}

// Log records what the varying input of a closed-form stretch held on each
// of its cycles, as runs (value, length) of cycles that held the same value.
// Bits the Vary does not name are ignored. The zero Log is empty; Reset
// empties it and keeps its storage.
type Log struct {
	// Run i is lens[i] cycles on each of which the input held vals[i].
	lens, vals []uint64
}

// Add appends n cycles on which the input held v, extending the last run
// when it held the same.
func (l *Log) Add(n, v uint64) {
	if r := len(l.vals) - 1; r >= 0 && l.vals[r] == v {
		l.lens[r] += n
	} else if n > 0 {
		l.lens = append(l.lens, n)
		l.vals = append(l.vals, v)
	}
}

// Reset empties the log.
func (l *Log) Reset() { l.lens, l.vals = l.lens[:0], l.vals[:0] }

// Runs is how many runs the log holds.
func (l *Log) Runs() int { return len(l.lens) }

// Cycles is how many cycles the log records.
func (l *Log) Cycles() uint64 {
	var n uint64
	for _, r := range l.lens {
		n += r
	}
	return n
}

// Last is the value the input held on the last cycle.
func (l *Log) Last() uint64 { return l.vals[len(l.vals)-1] }

// Counts adds to c[b], for each bit b of mask, how many cycles had bit b
// set.
func (l *Log) Counts(mask uint64, c *[64]uint64) {
	for i, r := range l.lens {
		for v := l.vals[i] & mask; v != 0; v &= v - 1 {
			c[bits.TrailingZeros64(v)] += r
		}
	}
}

// Vary names the bits of one input that may change from cycle to cycle
// during a closed-form stretch (ClosedForm.Quiet); the zero Vary names none.
type Vary struct {
	In   SigID
	Bits uint64
}

// EngineBuilder constructs a Backend for a validated circuit. mems is the
// Model's memory storage (one word slice per circuit memory), which the
// backend must share — memory state, like Vals, has a single copy.
type EngineBuilder func(c *Circuit, mems [][]uint64) (Backend, error)

// CombOrder levelises the circuit's combinational assignments: the returned
// indices into Combs order every assignment after the assignments producing
// the signals it reads. Engine implementations lower assignments in this
// order so a single linear pass settles the logic. Returns an error naming a
// signal on any combinational cycle.
func (c *Circuit) CombOrder() ([]int, error) { return levelize(c) }
