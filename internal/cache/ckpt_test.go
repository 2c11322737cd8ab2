package cache

import (
	"bytes"
	"testing"

	"gem5rtl/internal/conform"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

func testCacheCfg() Config {
	return Config{Name: "l1", SizeBytes: 4 << 10, Assoc: 2, Latency: 1000, MSHRs: 4, StridePrefetch: true}
}

// buildTestCache wires a cache between a stub CPU and an ideal responder so
// real traffic can populate its state.
func buildTestCache(q *sim.EventQueue) *Cache {
	c := New(testCacheCfg(), q)
	cpuSide := port.NewRequestPort("cpu", acceptAll{})
	port.Bind(cpuSide, c.CPUPort())
	memSide := port.NewResponsePort("mem", acceptAll{})
	port.Bind(c.MemPort(), memSide)
	return c
}

type acceptAll struct{}

func (acceptAll) RecvTimingResp(*port.Packet) bool { return true }
func (acceptAll) RecvReqRetry()                    {}
func (acceptAll) RecvTimingReq(*port.Packet) bool  { return true }
func (acceptAll) RecvRespRetry()                   {}

// TestCacheRoundTrip fills a cache with resident lines, outstanding MSHRs
// (with coalesced targets) and prefetcher state, then round-trips it.
func TestCacheRoundTrip(t *testing.T) {
	q := sim.NewEventQueue()
	c := buildTestCache(q)

	// Demand misses with strides to exercise MSHRs and the prefetcher.
	for i := 0; i < 6; i++ {
		pkt := port.NewReadPacket(uint64(i)*64, 8)
		pkt.PushSenderState(uint64(i))
		c.handleRequest(pkt)
	}
	// Coalesce one more target onto an outstanding miss.
	extra := port.NewReadPacket(0x40, 4)
	extra.PushSenderState(uint64(99))
	c.handleRequest(extra)
	// Fill a block so a line is resident, then dirty it.
	c.handleFill(port.NewPacket(port.ReadResp, 0, 64))
	wr := port.NewWritePacket(0x8, []byte{1, 2, 3, 4})
	wr.PushSenderState(uint64(7))
	c.handleRequest(wr)

	blob := conform.Save(t, c)

	q2 := sim.NewEventQueue()
	c2 := buildTestCache(q2)
	conform.Restore(t, blob, c2)
	if got := conform.Save(t, c2); !bytes.Equal(got, blob) {
		t.Error("re-saved state differs from original checkpoint")
	}
	if ln := c2.lookup(0x0); ln == nil || !ln.dirty {
		t.Error("restored line is not resident and dirty")
	}
	if len(c2.mshrs) != len(c.mshrs) {
		t.Errorf("restored MSHRs = %d, want %d", len(c2.mshrs), len(c.mshrs))
	}
	if c2.stats != c.stats {
		t.Errorf("stats = %+v, want %+v", c2.stats, c.stats)
	}
}

// TestCacheGeometryMismatch ensures a checkpoint refuses to load into a
// cache of different shape.
func TestCacheGeometryMismatch(t *testing.T) {
	q := sim.NewEventQueue()
	c := buildTestCache(q)
	blob := conform.Save(t, c)

	cfg := testCacheCfg()
	cfg.Assoc = 4
	other := New(cfg, sim.NewEventQueue())
	if err := conform.Load(blob, other); err == nil {
		t.Fatal("geometry mismatch not detected")
	}
}
