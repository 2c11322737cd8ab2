package rtlobject

import (
	"bytes"
	"testing"

	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/conform"
	"gem5rtl/internal/mem"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

// ckptWrapper is a deterministic checkpointable model: every tick it issues
// one 64-byte read until total is reached, and records retired responses.
type ckptWrapper struct {
	issued  int
	retired int
	total   int
}

func (w *ckptWrapper) Name() string { return "ckptw" }
func (w *ckptWrapper) Reset()       { w.issued, w.retired = 0, 0 }

func (w *ckptWrapper) Tick(in *Input) *Output {
	out := &Output{}
	w.retired += len(in.MemResponses)
	if w.issued < w.total {
		w.issued++
		out.MemRequests = append(out.MemRequests, MemRequest{
			ID: uint64(w.issued), Addr: uint64(w.issued) * 64, Size: 64,
		})
	}
	return out
}

func (w *ckptWrapper) Checkpoint(cs *ckpt.Stream) error {
	cs.Section("ckptw")
	cs.Len(&w.issued)
	cs.Len(&w.retired)
	cs.Len(&w.total)
	return cs.Err()
}

type ckptRig struct {
	q    *sim.EventQueue
	obj  *RTLObject
	wrap *ckptWrapper
	m0   *mem.IdealMemory
	m1   *mem.IdealMemory
}

func newCkptRig(total int) *ckptRig {
	r := &ckptRig{q: sim.NewEventQueue(), wrap: &ckptWrapper{total: total}}
	core := sim.NewClockDomain("cpu", r.q, 2_000_000_000)
	r.obj = New(Config{Name: "obj", ClockDivider: 2, MaxInflight: 2}, core, mem.NewStorage(), r.wrap)
	r.m0 = mem.NewIdealMemory("m0", r.q, 40*sim.Nanosecond)
	r.m1 = mem.NewIdealMemory("m1", r.q, 40*sim.Nanosecond)
	port.Bind(r.obj.MemPort(0), r.m0.Port())
	port.Bind(r.obj.MemPort(1), r.m1.Port())
	return r
}

func (r *ckptRig) save(t *testing.T) []byte { return conform.Save(t, r.q, r.obj, r.m0, r.m1) }

func (r *ckptRig) restore(t *testing.T, blob []byte) {
	conform.Restore(t, blob, r.q, r.obj, r.m0, r.m1)
}

// TestRTLObjectRoundTrip checkpoints the bridge mid-run — requests beyond
// MaxInflight waiting in the overflow queue, responses outstanding in memory
// — restores into a fresh rig (no Start) and checks both finish identically.
func TestRTLObjectRoundTrip(t *testing.T) {
	r := newCkptRig(20)
	r.obj.Start()
	r.q.RunUntil(100 * sim.Nanosecond)
	if r.obj.InflightCount() == 0 {
		t.Fatal("nothing in flight at checkpoint tick")
	}
	blob := r.save(t)

	r2 := newCkptRig(20)
	r2.restore(t, blob)
	if got := r2.save(t); !bytes.Equal(got, blob) {
		t.Error("re-saved state differs from original checkpoint")
	}
	if r2.wrap.issued != r.wrap.issued || r2.obj.InflightCount() != r.obj.InflightCount() {
		t.Fatalf("bridge state lost: issued=%d inflight=%d", r2.wrap.issued, r2.obj.InflightCount())
	}

	end := 100 * sim.Microsecond
	r.q.RunUntil(end)
	r2.q.RunUntil(end)
	if r.wrap.retired != 20 || r2.wrap.retired != r.wrap.retired {
		t.Errorf("retired: cold=%d restored=%d", r.wrap.retired, r2.wrap.retired)
	}
	if r.obj.Stats() != r2.obj.Stats() {
		t.Errorf("final stats diverge:\n got %+v\nwant %+v", r2.obj.Stats(), r.obj.Stats())
	}
}

// TestRTLObjectWrapperMustCheckpoint verifies the bridge refuses to save a
// model that cannot serialise itself.
func TestRTLObjectWrapperMustCheckpoint(t *testing.T) {
	q := sim.NewEventQueue()
	core := sim.NewClockDomain("cpu", q, 2_000_000_000)
	obj := New(Config{Name: "obj"}, core, mem.NewStorage(), &echoWrapper{})
	if err := obj.Checkpoint(ckpt.Saving(ckpt.NewWriter(&bytes.Buffer{}))); err == nil {
		t.Fatal("non-checkpointable wrapper accepted")
	}
}
