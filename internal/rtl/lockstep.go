package rtl

// Lockstep runs a Model beside the reference evaluator of the same circuit:
// stimulus goes to both, and after every Reset, Eval and Tick every signal
// and memory word is compared. The front-end test suites drive their models
// through it, so each HDL construct they exercise is checked on the engine
// under test and on the reference at once. Its methods are the part of
// Model's that those suites use; reads come from the model under test.
type Lockstep struct {
	m, ref *Model
	fail   func(format string, args ...any)
}

// NewLockstep builds the reference for m's circuit and compares the two
// reset states. fail reports a divergence and is not expected to return
// (testing.TB's Fatalf).
func NewLockstep(m *Model, fail func(format string, args ...any)) *Lockstep {
	ref, err := Compile(m.c)
	if err != nil {
		fail("rtl: reference rejects a circuit the model under test accepted: %v", err)
		return nil
	}
	l := &Lockstep{m: m, ref: ref, fail: fail}
	l.compare("compile")
	return l
}

// SetInput drives an input port of both models.
func (l *Lockstep) SetInput(name string, val uint64) {
	l.m.SetInput(name, val)
	l.ref.SetInput(name, val)
}

// Reset resets both models and compares them.
func (l *Lockstep) Reset() {
	l.m.Reset()
	l.ref.Reset()
	l.compare("Reset")
}

// Eval settles both models' combinational logic and compares them.
func (l *Lockstep) Eval() {
	l.m.Eval()
	l.ref.Eval()
	l.compare("Eval")
}

// Tick advances both models one clock cycle and compares them.
func (l *Lockstep) Tick() {
	l.m.Tick()
	l.ref.Tick()
	l.compare("Tick")
}

// Peek reads a signal of the model under test.
func (l *Lockstep) Peek(name string) uint64 { return l.m.Peek(name) }

func (l *Lockstep) compare(after string) {
	c := l.m.c
	for i, s := range c.Signals {
		if got, want := l.m.vals[i], l.ref.vals[i]; got != want {
			l.fail("%s: after %s, cycle %d: signal %q = %#x, reference %#x", c.Name, after, l.m.cycle, s.Name, got, want)
		}
	}
	for i, mem := range c.Mems {
		for a, want := range l.ref.mems[i] {
			if got := l.m.mems[i][a]; got != want {
				l.fail("%s: after %s, cycle %d: mem %q[%d] = %#x, reference %#x", c.Name, after, l.m.cycle, mem.Name, a, got, want)
			}
		}
	}
}
