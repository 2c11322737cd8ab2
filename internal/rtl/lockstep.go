package rtl

import "bytes"

// Lockstep runs a Model beside the reference evaluator of the same circuit:
// stimulus goes to both, and after every Reset, Eval and Tick every signal
// and memory word is compared. The front-end test suites drive their models
// through it, so each HDL construct they exercise is checked on the engine
// under test and on the reference at once. Its methods are the part of
// Model's that those suites use; reads come from the model under test.
type Lockstep struct {
	m, ref *Model
	fail   func(format string, args ...any)
	// vcd holds the two models' waveforms once AttachVCD is called; the
	// first vcdAt bytes have been compared.
	vcd   *[2]bytes.Buffer
	vcdAt int
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

// Quiet asks the model under test how many coming cycles it can apply in
// closed form with the bits vary names free to change (Model.Quiet).
func (l *Lockstep) Quiet(vary Vary) uint64 { return l.m.Quiet(vary) }

// Advance applies n cycles to the model under test in closed form and runs
// n real cycles of the reference, then compares the two. The inputs hold,
// except that on cycle j+1 of the stretch the bits vary names take their
// value from in[j] (in is nil for the zero Vary); the model is given the
// log of that sequence. On the way it holds the reference to the rest of
// the promise: no output changes during the stretch.
func (l *Lockstep) Advance(n uint64, vary Vary, in []uint64) {
	c := l.ref.c
	held := append([]uint64(nil), l.ref.vals...)
	var log *Log
	if vary.Bits != 0 {
		log = &Log{}
	}
	for j := uint64(0); j < n; j++ {
		if log != nil {
			val := l.ref.vals[vary.In]&^vary.Bits | in[j]&vary.Bits
			l.ref.SetInputID(vary.In, val)
			log.Add(1, val)
		}
		l.ref.Tick()
		for id, s := range c.Signals {
			if s.Kind == SigOutput && l.ref.vals[id] != held[id] {
				l.fail("%s: Advance(%d): output %q moved in cycle %d of the stretch: %#x, before it %#x",
					c.Name, n, s.Name, j+1, l.ref.vals[id], held[id])
			}
		}
	}
	l.m.Advance(n, log)
	l.compare("Advance")
}

// AttachVCD attaches a VCD writer to each model: from then on every
// comparison also holds the model's waveform to the reference's, byte for
// byte, and the model's Quiet asks for stretches whose records Advance can
// write.
func (l *Lockstep) AttachVCD() {
	l.vcd = &[2]bytes.Buffer{}
	l.m.AttachVCD(&l.vcd[0], 1)
	l.ref.AttachVCD(&l.vcd[1], 1)
	l.compare("AttachVCD")
}

// Peek reads a signal of the model under test.
func (l *Lockstep) Peek(name string) uint64 { return l.m.Peek(name) }

func (l *Lockstep) compare(after string) {
	c := l.m.c
	if l.m.cycle != l.ref.cycle {
		l.fail("%s: after %s: cycle %d, reference %d", c.Name, after, l.m.cycle, l.ref.cycle)
	}
	for i, s := range c.Signals {
		if got, want := l.m.vals[i], l.ref.vals[i]; got != want {
			l.fail("%s: after %s, cycle %d: signal %q = %#x, reference %#x", c.Name, after, l.m.cycle, s.Name, got, want)
		}
	}
	if l.vcd != nil {
		if err := l.m.vcd.Flush(); err != nil {
			l.fail("%s: VCD: %v", c.Name, err)
		}
		if err := l.ref.vcd.Flush(); err != nil {
			l.fail("%s: reference VCD: %v", c.Name, err)
		}
		got, want := l.vcd[0].Bytes()[min(l.vcdAt, l.vcd[0].Len()):], l.vcd[1].Bytes()[l.vcdAt:]
		if !bytes.Equal(got, want) {
			l.fail("%s: after %s, cycle %d: VCD not the reference's after byte %d:\n%.400s\nreference:\n%.400s",
				c.Name, after, l.m.cycle, l.vcdAt, got, want)
		}
		l.vcdAt = l.vcd[1].Len()
	}
	for i, mem := range c.Mems {
		for a, want := range l.ref.mems[i] {
			if got := l.m.mems[i][a]; got != want {
				l.fail("%s: after %s, cycle %d: mem %q[%d] = %#x, reference %#x", c.Name, after, l.m.cycle, mem.Name, a, got, want)
			}
		}
	}
}
