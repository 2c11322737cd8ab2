package cache

import (
	"testing"

	"gem5rtl/internal/mem"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

// pooledDriver is a minimal cache master that recycles every response,
// mirroring how the CPU core uses the cache after the pooling overhaul.
type pooledDriver struct {
	pool port.PacketPool
	p    *port.RequestPort
	got  int
}

func (d *pooledDriver) RecvTimingResp(pkt *port.Packet) bool {
	d.got++
	pkt.Release()
	return true
}

func (d *pooledDriver) RecvReqRetry() {}

// TestCacheHitPathAllocs requires the steady-state read-hit round trip —
// pooled request in, cache lookup, pooled response out, release — to be
// allocation-free. A regression here means the hot lookup path started
// allocating again (packets, response-queue growth, or event churn).
func TestCacheHitPathAllocs(t *testing.T) {
	q := sim.NewEventQueue()
	c := New(l1Config(), q)
	m := mem.NewIdealMemory("mem", q, 50*sim.Nanosecond)
	// Unchecked links: the allocation claim is about the simulation path, and
	// the protocol checker (GEM5RTL_CHECK_PORTS) formats a history line per
	// handshake.
	port.BindUnchecked(c.MemPort(), m.Port())
	d := &pooledDriver{}
	d.p = port.NewRequestPort("drv", d)
	port.BindUnchecked(d.p, c.CPUPort())

	hit := func() {
		pkt := d.pool.GetRead(0x100, 8)
		if !d.p.SendTimingReq(pkt) {
			t.Fatal("cache refused a request")
		}
		q.Run()
	}
	hit() // first access misses and warms the pool, MSHRs and line storage
	hit() // second access warms the hit path itself

	allocs := testing.AllocsPerRun(1000, hit)
	if allocs != 0 {
		t.Fatalf("cache hit path allocates %.1f objects/op, want 0", allocs)
	}
	if d.got < 2 {
		t.Fatal("no responses delivered")
	}
}

// TestCacheMissPathAllocs bounds the steady-state miss path (lookup, MSHR
// recycle, pooled fetch to memory, fill, victim writeback) — the dominant
// packet traffic of the DSE workloads. The bound is deliberately loose: it
// catches a return to per-miss packet/MSHR allocation (~10 objects in the
// pre-pooling kernel) without pinning incidental runtime behaviour.
func TestCacheMissPathAllocs(t *testing.T) {
	q := sim.NewEventQueue()
	cfg := l1Config()
	c := New(cfg, q)
	m := mem.NewIdealMemory("mem", q, 50*sim.Nanosecond)
	// Unchecked links: the allocation claim is about the simulation path, and
	// the protocol checker (GEM5RTL_CHECK_PORTS) formats a history line per
	// handshake.
	port.BindUnchecked(c.MemPort(), m.Port())
	d := &pooledDriver{}
	d.p = port.NewRequestPort("drv", d)
	port.BindUnchecked(d.p, c.CPUPort())

	// Walk a strided footprint larger than the cache so every access past
	// the warm-up round misses and (after one full pass) evicts.
	stride := uint64(64)
	lines := uint64(2 * cfg.SizeBytes / 64)
	var i uint64
	miss := func() {
		pkt := d.pool.Get(port.WriteReq, (i%lines)*stride, 8)
		i++
		if !d.p.SendTimingReq(pkt) {
			t.Fatal("cache refused a request")
		}
		q.Run()
	}
	for j := uint64(0); j < 2*lines; j++ {
		miss() // two full passes: populate, then evict-with-writeback
	}

	allocs := testing.AllocsPerRun(200, miss)
	if allocs > 2 {
		t.Fatalf("cache miss path allocates %.1f objects/op, want <= 2", allocs)
	}
}
