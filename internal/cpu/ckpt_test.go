package cpu

import (
	"bytes"
	"testing"

	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/conform"
	"gem5rtl/internal/isa"
	"gem5rtl/internal/sim"
)

// TestCoreRoundTrip mutates a core into a mid-run shape (sleeping, pending
// loads, stats), checkpoints it, restores into a fresh core and verifies the
// re-serialised state is byte-identical and key fields survived.
func TestCoreRoundTrip(t *testing.T) {
	q := sim.NewEventQueue()
	dom := sim.NewClockDomain("clk", q, 2_000_000_000)
	c := New(DefaultConfig(0), dom)
	c.ticker.Start()
	for i := range c.regs {
		c.regs[i] = uint64(i * 3)
	}
	c.pc = 0x1234
	c.pendingReg[5] = true
	c.outLoads = 2
	c.outStores = 1
	c.fetchBlock = 0x40
	c.fetchOutstanding = 1
	c.stallCycles = 3
	c.sleeping = true
	c.stats = Stats{Cycles: 100, Committed: 250, Loads: 40, SleepCycles: 10}
	q.Schedule(c.wakeEv, 9_000)

	blob := conform.Save(t, c)

	q2 := sim.NewEventQueue()
	dom2 := sim.NewClockDomain("clk", q2, 2_000_000_000)
	c2 := New(DefaultConfig(0), dom2)
	conform.Restore(t, blob, c2)
	if c2.pc != 0x1234 || c2.regs[7] != 21 || !c2.pendingReg[5] || !c2.sleeping {
		t.Errorf("fields lost: pc=%#x regs[7]=%d pending5=%v sleeping=%v",
			c2.pc, c2.regs[7], c2.pendingReg[5], c2.sleeping)
	}
	if !c2.wakeEv.Scheduled() || c2.wakeEv.When() != 9_000 {
		t.Error("wake event not re-materialised")
	}
	if !c2.ticker.Running() {
		t.Error("ticker not re-materialised")
	}
	if got := conform.Save(t, c2); !bytes.Equal(got, blob) {
		t.Error("re-saved state differs from original checkpoint")
	}
}

// parts is everything a core rig checkpoints, in a fixed order.
func (r *rig) parts() []ckpt.Checkpointable {
	return []ckpt.Checkpointable{r.q, r.core, r.l1i, r.l1d, r.store}
}

// TestCoreSleepWakeAfterRestore checkpoints a real program mid-sleep,
// restores it into a fresh rig (no LoadProgram/Start) and checks it wakes,
// finishes, and exits with the same code at the same tick as an
// uninterrupted run.
func TestCoreSleepWakeAfterRestore(t *testing.T) {
	src := `
main:
    li a7, 1000
    li a0, 50      ; sleep 50 us
    ecall
    li a7, 93
    li a0, 7
    ecall
`
	// Reference: uninterrupted run.
	ref := newRig(t)
	if code := ref.run(t, src, 10*sim.Millisecond); code != 7 {
		t.Fatalf("reference exit %d", code)
	}
	refTick := ref.q.Now()

	// Checkpointed run: stop mid-sleep.
	r := newRig(t)
	img, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	r.core.LoadProgram(img)
	r.core.Start()
	r.q.RunUntil(10 * sim.Microsecond)
	if !r.core.sleeping {
		t.Fatal("core not sleeping at checkpoint tick")
	}
	blob := conform.Save(t, r.parts()...)

	// Restore into a fresh rig: no program load, no Start.
	r2 := newRig(t)
	conform.Restore(t, blob, r2.parts()...)
	if !r2.core.sleeping || !r2.core.wakeEv.Scheduled() {
		t.Fatal("restored core lost its pending wake")
	}
	r2.q.RunUntil(10 * sim.Millisecond)
	exited, code := r2.core.Exited()
	if !exited || code != 7 {
		t.Fatalf("restored run: exited=%v code=%d", exited, code)
	}
	if r2.q.Now() != refTick {
		t.Errorf("restored run finished at tick %d, reference at %d", r2.q.Now(), refTick)
	}
}
