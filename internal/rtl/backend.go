package rtl

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
