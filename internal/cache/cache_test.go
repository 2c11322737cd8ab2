package cache

import (
	"testing"
	"testing/quick"

	"gem5rtl/internal/mem"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

// harness: driver -> cache -> ideal memory.
type harness struct {
	q     *sim.EventQueue
	c     *Cache
	memry *mem.IdealMemory
	store *mem.Storage

	p       *port.RequestPort
	resps   []*port.Packet
	pending []*port.Packet
	stalled bool
}

func newHarness(t testing.TB, cfg Config) *harness {
	t.Helper()
	h := &harness{q: sim.NewEventQueue()}
	h.c = New(cfg, h.q)
	h.memry = mem.NewIdealMemory("mem", h.q, 50*sim.Nanosecond)
	port.Bind(h.c.MemPort(), h.memry.Port())
	h.p = port.NewRequestPort("drv", h)
	port.Bind(h.p, h.c.CPUPort())
	return h
}

func (h *harness) RecvTimingResp(pkt *port.Packet) bool {
	h.resps = append(h.resps, pkt)
	return true
}

func (h *harness) RecvReqRetry() {
	h.stalled = false
	h.pump()
}

func (h *harness) send(pkt *port.Packet) {
	h.pending = append(h.pending, pkt)
	h.pump()
}

func (h *harness) pump() {
	for len(h.pending) > 0 && !h.stalled {
		if !h.p.SendTimingReq(h.pending[0]) {
			h.stalled = true
			return
		}
		h.pending = h.pending[1:]
	}
}

func l1Config() Config {
	return Config{Name: "l1d", SizeBytes: 64 * 1024, Assoc: 4,
		Latency: 1 * sim.Nanosecond, MSHRs: 24}
}

func TestMissThenHit(t *testing.T) {
	h := newHarness(t, l1Config())
	h.send(port.NewReadPacket(0x1000, 4))
	h.q.Run()
	if len(h.resps) != 1 || h.resps[0].Cmd != port.ReadResp {
		t.Fatalf("miss read failed: %+v", h.resps)
	}
	missTime := h.q.Now()

	start := h.q.Now()
	h.send(port.NewReadPacket(0x1008, 8))
	h.q.Run()
	hitLat := h.q.Now() - start
	if st := h.c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
	if hitLat >= missTime {
		t.Fatalf("hit latency %d not lower than miss %d", hitLat, missTime)
	}
}

// A write miss allocates its block, so reading it back hits.
func TestWriteReadBack(t *testing.T) {
	h := newHarness(t, l1Config())
	h.send(port.NewWritePacket(0x2000, []byte{1, 2, 3, 4}))
	h.q.Run()
	if st := h.c.Stats(); st.WriteMisses != 1 || len(h.resps) != 1 || h.resps[0].Cmd != port.WriteResp {
		t.Fatalf("write miss: stats %+v resps %+v", st, h.resps)
	}
	h.send(port.NewReadPacket(0x2000, 4))
	h.q.Run()
	st := h.c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("read back after write: stats %+v, want 1 hit 1 miss", st)
	}
	if last := h.resps[len(h.resps)-1]; len(h.resps) != 2 || last.Cmd != port.ReadResp {
		t.Fatalf("read back response: %+v", h.resps)
	}
}

// Property: across evictions in a tiny cache, every access is answered
// and counted once as a hit or a miss, the line a write just brought in
// is resident for the read that follows it, and no more dirty lines are
// written back than writes dirtied.
func TestQuickWrittenLineStaysResident(t *testing.T) {
	cfg := l1Config()
	cfg.SizeBytes = 1024 // tiny: force evictions
	cfg.Assoc = 2
	h := newHarness(t, cfg)
	var accesses, writes uint64
	f := func(addrs []uint16) bool {
		for _, a16 := range addrs {
			addr := uint64(a16)
			h.resps = nil
			h.send(port.NewWritePacket(addr, []byte{byte(a16 >> 3)}))
			h.q.Run()
			hits := h.c.Stats().Hits
			h.send(port.NewReadPacket(addr, 1))
			h.q.Run()
			accesses += 2
			writes++
			if len(h.resps) != 2 || h.c.Stats().Hits != hits+1 {
				return false
			}
		}
		st := h.c.Stats()
		return st.Hits+st.Misses == accesses && st.Writebacks <= writes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	cfg := l1Config()
	cfg.SizeBytes = 4 * 1024 // 64 blocks, 4-way, 16 sets
	h := newHarness(t, cfg)
	var down memSideLog
	port.Interpose(h.c.MemPort(), &down)
	// Write block 0, then evict it by filling its set with conflicting
	// blocks: twice round the set, so the clean line that took block 0's
	// way is evicted too, and must not be written back.
	h.send(port.NewWritePacket(0x0, []byte{0xEE}))
	h.q.Run()
	setStride := uint64(cfg.SizeBytes / cfg.Assoc) // 1 KiB
	for i := 1; i <= 2*cfg.Assoc; i++ {
		h.send(port.NewReadPacket(uint64(i)*setStride, 8))
		h.q.Run()
	}
	if st := h.c.Stats(); st.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", st.Writebacks)
	}
	if len(down.writebacks) != 1 || down.writebacks[0] != 0 {
		t.Fatalf("writebacks reaching memory: %#x, want [0x0]", down.writebacks)
	}
	// Re-read block 0: the eviction dropped it, so it must miss.
	misses := h.c.Stats().Misses
	h.send(port.NewReadPacket(0x0, 1))
	h.q.Run()
	if h.c.Stats().Misses != misses+1 {
		t.Fatal("re-read of the evicted block hit")
	}
}

// memSideLog is a LinkTap that records the writebacks a cache sends down.
type memSideLog struct{ writebacks []uint64 }

func (l *memSideLog) TapReq(pkt *port.Packet) port.TapAction {
	if pkt.Cmd == port.WritebackDirty {
		l.writebacks = append(l.writebacks, pkt.Addr)
	}
	return port.TapPass
}

func (l *memSideLog) TapResp(*port.Packet) port.TapAction { return port.TapPass }

func TestMSHRCoalescing(t *testing.T) {
	h := newHarness(t, l1Config())
	// Two reads to the same block before the fill returns: one miss, one fill.
	h.send(port.NewReadPacket(0x3000, 4))
	h.send(port.NewReadPacket(0x3008, 4))
	h.q.Run()
	st := h.c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (coalesced)", st.Misses)
	}
	if len(h.resps) != 2 {
		t.Fatalf("resps = %d", len(h.resps))
	}
}

func TestMSHRLimitBackPressure(t *testing.T) {
	cfg := l1Config()
	cfg.MSHRs = 2
	h := newHarness(t, cfg)
	for i := 0; i < 8; i++ {
		h.send(port.NewReadPacket(uint64(i)*64, 4))
	}
	if !h.stalled {
		t.Fatal("no back-pressure with 8 misses into 2 MSHRs")
	}
	h.q.Run()
	if len(h.resps) != 8 {
		t.Fatalf("resps = %d, want 8", len(h.resps))
	}
	if h.c.Stats().MSHRStalls == 0 {
		t.Fatal("MSHR stalls not counted")
	}
}

func TestLRUReplacement(t *testing.T) {
	cfg := l1Config()
	cfg.SizeBytes = 2 * 64 * 2 // 2 sets? keep: 4 blocks, 2-way, 2 sets
	cfg.Assoc = 2
	h := newHarness(t, cfg)
	setStride := uint64(cfg.SizeBytes / cfg.Assoc) // 128
	a, b, c := uint64(0), setStride, 2*setStride   // all map to set 0
	h.send(port.NewReadPacket(a, 4))
	h.q.Run()
	h.send(port.NewReadPacket(b, 4))
	h.q.Run()
	h.send(port.NewReadPacket(a, 4)) // touch a: b becomes LRU
	h.q.Run()
	h.send(port.NewReadPacket(c, 4)) // evicts b
	h.q.Run()
	base := h.c.Stats()
	h.send(port.NewReadPacket(a, 4)) // must still hit
	h.q.Run()
	if h.c.Stats().Hits != base.Hits+1 {
		t.Fatal("LRU evicted the recently-used block")
	}
	h.send(port.NewReadPacket(b, 4)) // must miss
	h.q.Run()
	if h.c.Stats().Misses != base.Misses+1 {
		t.Fatal("expected miss on evicted block")
	}
}

func TestStridePrefetcher(t *testing.T) {
	cfg := l1Config()
	cfg.StridePrefetch = true
	h := newHarness(t, cfg)
	// Sequential block misses: the prefetcher should cover upcoming blocks.
	for i := 0; i < 16; i++ {
		h.send(port.NewReadPacket(uint64(i)*64, 4))
		h.q.Run()
	}
	st := h.c.Stats()
	if st.Prefetches == 0 {
		t.Fatal("stride prefetcher never fired")
	}
	if st.PrefHits == 0 {
		t.Fatal("no demand hits on prefetched lines")
	}
	if st.Misses >= 16 {
		t.Fatalf("prefetcher did not reduce misses: %d", st.Misses)
	}
}

func TestOnMissCallback(t *testing.T) {
	h := newHarness(t, l1Config())
	misses := 0
	h.c.OnMiss = func() { misses++ }
	h.send(port.NewReadPacket(0x100, 4))
	h.q.Run()
	h.send(port.NewReadPacket(0x100, 4))
	h.q.Run()
	if misses != 1 {
		t.Fatalf("OnMiss fired %d times, want 1", misses)
	}
}

func TestTwoLevelHierarchy(t *testing.T) {
	q := sim.NewEventQueue()
	l1 := New(Config{Name: "l1", SizeBytes: 4096, Assoc: 4, Latency: sim.Nanosecond, MSHRs: 8}, q)
	l2 := New(Config{Name: "l2", SizeBytes: 64 * 1024, Assoc: 8, Latency: 4 * sim.Nanosecond, MSHRs: 16, StridePrefetch: true}, q)
	m := mem.NewIdealMemory("mem", q, 80*sim.Nanosecond)
	port.Bind(l1.MemPort(), l2.CPUPort())
	port.Bind(l2.MemPort(), m.Port())
	h := &harness{q: q}
	h.p = port.NewRequestPort("drv", h)
	port.Bind(h.p, l1.CPUPort())

	h.send(port.NewReadPacket(0x8000, 2))
	q.Run()
	if len(h.resps) != 1 {
		t.Fatal("two-level read failed")
	}
	if l1.Stats().Misses != 1 || l2.Stats().Misses != 1 {
		t.Fatalf("l1 %+v l2 %+v", l1.Stats(), l2.Stats())
	}
	// L1 eviction pressure: re-reads served by L2.
	for i := 0; i < 128; i++ {
		h.send(port.NewReadPacket(uint64(i)*64, 4))
		q.Run()
	}
	// The first line is out of the L1 by now but still in the L2.
	l1Misses, l2Hits := l1.Stats().Misses, l2.Stats().Hits
	h.resps = nil
	h.send(port.NewReadPacket(0x8000, 2))
	q.Run()
	if len(h.resps) != 1 || l1.Stats().Misses != l1Misses+1 || l2.Stats().Hits != l2Hits+1 {
		t.Fatalf("re-read not served by the L2: l1 %+v l2 %+v", l1.Stats(), l2.Stats())
	}
}

func BenchmarkCacheHit(b *testing.B) {
	h := newHarness(b, l1Config())
	h.send(port.NewReadPacket(0x100, 8))
	h.q.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.send(port.NewReadPacket(0x100, 8))
		h.q.Run()
	}
}
