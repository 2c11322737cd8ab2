package nvdla

import (
	"bytes"
	"sort"
	"strings"
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

// TestNVDLAReadTableRefused: the outstanding-read table travels sorted by
// ID, each read minted and each for a tile of the layer; a checkpoint whose
// table breaks any of that is refused.
func TestNVDLAReadTableRefused(t *testing.T) {
	r := newCkptRig(t)
	r.obj.Start()
	program(r.dla, 8<<10, 4<<10, 4<<10, 2<<10, 300)
	r.q.RunUntil(100 * sim.Nanosecond) // the first tiles' reads are in flight
	r.obj.Wake()
	var reads []readSlot
	for _, s := range r.dla.reads.slots {
		if s.id != 0 {
			reads = append(reads, s)
		}
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i].id < reads[j].id })
	if len(reads) < 3 {
		t.Fatalf("%d reads in flight at the checkpoint tick, want at least 3", len(reads))
	}
	blob := conform.Save(t, r.dla)
	// The table follows the ID counter: its length, then (ID, tile) pairs.
	table := func(edit func(rs []readSlot)) []byte {
		rs := append([]readSlot(nil), reads...)
		edit(rs)
		words := []uint64{r.dla.nextID, uint64(len(rs))}
		for _, s := range rs {
			words = append(words, s.id, uint64(s.tile))
		}
		return conform.Words(words...)
	}
	good := table(func([]readSlot) {})
	for _, c := range []struct {
		name string
		edit func(rs []readSlot)
	}{
		{"out of order", func(rs []readSlot) { rs[1], rs[2] = rs[2], rs[1] }},
		{"beyond the ID counter", func(rs []readSlot) { rs[len(rs)-1].id = r.dla.nextID + 1 }},
		{"tile out of range", func(rs []readSlot) { rs[0].tile = len(r.dla.tiles) }},
	} {
		bad := conform.Patch(t, blob, good, table(c.edit))
		err := conform.Load(bad, New(DefaultConfig("nvdla0")))
		if err == nil || !strings.Contains(err.Error(), "out of order or range") {
			t.Errorf("%s: restore error = %v, want the read-table refusal", c.name, err)
		}
	}
}
