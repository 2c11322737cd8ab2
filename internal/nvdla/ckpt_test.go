package nvdla

import (
	"bytes"
	"testing"

	"gem5rtl/internal/conform"
	"gem5rtl/internal/mem"
	"gem5rtl/internal/port"
	"gem5rtl/internal/rtlobject"
	"gem5rtl/internal/sim"
)

// ckptRig is a dlaRig that keeps the pieces needed for checkpointing.
type ckptRig struct {
	q        *sim.EventQueue
	dla      *Wrapper
	obj      *rtlobject.RTLObject
	store    *mem.Storage
	m0, m1   *mem.IdealMemory
	doneTick sim.Tick
}

func newCkptRig(t testing.TB) *ckptRig {
	t.Helper()
	r := &ckptRig{q: sim.NewEventQueue(), store: mem.NewStorage()}
	core := sim.NewClockDomain("cpu", r.q, 2_000_000_000)
	r.dla = New(DefaultConfig("nvdla0"))
	r.obj = rtlobject.New(rtlobject.Config{
		Name: "nvdla0", ClockDivider: 2, MaxInflight: 16,
	}, core, r.store, r.dla)
	r.m0 = mem.NewIdealMemory("dbbif", r.q, 20*sim.Nanosecond)
	r.m1 = mem.NewIdealMemory("sramif", r.q, 20*sim.Nanosecond)
	port.Bind(r.obj.MemPort(PortDBBIF), r.m0.Port())
	port.Bind(r.obj.MemPort(PortSRAMIF), r.m1.Port())
	r.obj.OnInterrupt(func(level bool) {
		if level && r.doneTick == 0 {
			r.doneTick = r.q.Now()
		}
	})
	return r
}

func (r *ckptRig) save(t *testing.T) []byte { return conform.Save(t, r.q, r.obj, r.m0, r.m1, r.store) }

func (r *ckptRig) restore(t *testing.T, blob []byte) {
	conform.Restore(t, blob, r.q, r.obj, r.m0, r.m1, r.store)
}

// TestNVDLARoundTrip checkpoints an accelerator mid-layer — outstanding tile
// reads, partially computed tiles, pending output writes — restores into a
// fresh rig (no Start, no re-programming) and checks the restored run
// completes at the same tick with identical statistics.
func TestNVDLARoundTrip(t *testing.T) {
	r := newCkptRig(t)
	r.obj.Start() // Start resets the wrapper; program afterwards.
	program(r.dla, 8<<10, 4<<10, 4<<10, 2<<10, 300)
	r.q.RunUntil(1500 * sim.Nanosecond)
	if r.dla.Done() {
		t.Fatal("layer finished before checkpoint tick; lower the tick")
	}
	if r.dla.reads.n == 0 && len(r.dla.pendWrites) == 0 &&
		r.dla.computeLeft == 0 && r.dla.writesOut == 0 {
		t.Fatal("no in-flight accelerator state at checkpoint tick")
	}
	blob := r.save(t)

	r2 := newCkptRig(t)
	r2.restore(t, blob)
	if got := r2.save(t); !bytes.Equal(got, blob) {
		t.Error("re-saved state differs from original checkpoint")
	}

	end := 10 * sim.Millisecond
	r.q.RunUntil(end)
	r2.q.RunUntil(end)
	if !r.dla.Done() || !r2.dla.Done() {
		t.Fatalf("runs did not finish: cold=%v restored=%v", r.dla.Done(), r2.dla.Done())
	}
	if r.doneTick != r2.doneTick {
		t.Errorf("completion tick diverges: cold=%d restored=%d", r.doneTick, r2.doneTick)
	}
	if r.dla.Stats() != r2.dla.Stats() {
		t.Errorf("accelerator stats diverge:\n got %+v\nwant %+v", r2.dla.Stats(), r.dla.Stats())
	}
	if r.obj.Stats() != r2.obj.Stats() {
		t.Errorf("bridge stats diverge:\n got %+v\nwant %+v", r2.obj.Stats(), r.obj.Stats())
	}
}
