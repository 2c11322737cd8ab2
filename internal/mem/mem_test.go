package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

func TestStorageReadWrite(t *testing.T) {
	s := NewStorage()
	data := []byte{1, 2, 3, 4, 5}
	s.Write(0x12345, data)
	got := make([]byte, 5)
	s.Read(0x12345, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("got %v", got)
	}
	// Unwritten reads as zero.
	zero := make([]byte, 8)
	s.Read(0x999999, zero)
	for _, b := range zero {
		if b != 0 {
			t.Fatal("unwritten memory not zero")
		}
	}
}

func TestStorageCrossPage(t *testing.T) {
	s := NewStorage()
	addr := uint64(1<<16) - 3 // straddles a 64 KiB page boundary
	data := []byte{9, 8, 7, 6, 5, 4}
	s.Write(addr, data)
	got := make([]byte, 6)
	s.Read(addr, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("cross-page got %v", got)
	}
}

func TestStorageQuickRoundTrip(t *testing.T) {
	s := NewStorage()
	f := func(addr uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		s.Write(uint64(addr), data)
		got := make([]byte, len(data))
		s.Read(uint64(addr), got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// memTester drives a memory's response port with reads/writes.
type memTester struct {
	q       *sim.EventQueue
	p       *port.RequestPort
	resps   int
	lastTk  sim.Tick
	pending []*port.Packet
	stalled bool
	// payloads counts responses that arrived carrying bytes.
	payloads int
}

func newMemTester(q *sim.EventQueue) *memTester {
	m := &memTester{q: q}
	m.p = port.NewRequestPort("tester", m)
	return m
}

func (m *memTester) RecvTimingResp(pkt *port.Packet) bool {
	m.resps++
	m.lastTk = m.q.Now()
	if pkt.Data != nil {
		m.payloads++
	}
	return true
}

func (m *memTester) RecvReqRetry() {
	m.stalled = false
	m.pump()
}

func (m *memTester) send(pkt *port.Packet) {
	m.pending = append(m.pending, pkt)
	m.pump()
}

func (m *memTester) pump() {
	for len(m.pending) > 0 && !m.stalled {
		if !m.p.SendTimingReq(m.pending[0]) {
			m.stalled = true
			return
		}
		m.pending = m.pending[1:]
	}
}

func TestIdealMemoryTiming(t *testing.T) {
	q := sim.NewEventQueue()
	im := NewIdealMemory("ideal", q, 500)
	tst := newMemTester(q)
	port.Bind(tst.p, im.Port())

	tst.send(port.NewWritePacket(0x100, []byte{0xAB, 0xCD}))
	q.Run()
	if tst.resps != 1 || tst.lastTk != 500 {
		t.Fatalf("write answered %d times, last at %d; want once at 500", tst.resps, tst.lastTk)
	}
	tst.send(port.NewReadPacket(0x100, 2))
	q.Run()
	if tst.resps != 2 || tst.lastTk != 1000 {
		t.Fatalf("read answered at %d (%d responses), want at 1000", tst.lastTk, tst.resps)
	}
}

// TestControllersAnswerWithoutPayload: a controller models timing only. Each
// answers a write and a read of the same block, and neither response
// carries bytes: the agent that owns them reads and writes the store itself.
func TestControllersAnswerWithoutPayload(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(q *sim.EventQueue) *port.ResponsePort
	}{
		{"ideal", func(q *sim.EventQueue) *port.ResponsePort { return NewIdealMemory("ideal", q, 500).Port() }},
		{"dram", func(q *sim.EventQueue) *port.ResponsePort { return NewDRAMCtrl(DDR4Config(1), q).Port() }},
		{"scratchpad", func(q *sim.EventQueue) *port.ResponsePort {
			return NewScratchpad(DefaultScratchpadConfig("spm"), q).Port()
		}},
	} {
		q := sim.NewEventQueue()
		tst := newMemTester(q)
		port.Bind(tst.p, tc.build(q))
		tst.send(port.NewPacket(port.WriteReq, 0x4000, 64))
		q.Run()
		tst.send(port.NewReadPacket(0x4000, 64))
		q.Run()
		if tst.resps != 2 || tst.payloads != 0 {
			t.Errorf("%s: %d responses, %d with a payload; want 2 and 0", tc.name, tst.resps, tst.payloads)
		}
	}
}

func TestDRAMRowHitFasterThanMiss(t *testing.T) {
	measure := func(addrs []uint64) sim.Tick {
		q := sim.NewEventQueue()
		d := NewDRAMCtrl(DDR4Config(1), q)
		tst := newMemTester(q)
		port.Bind(tst.p, d.Port())
		var last sim.Tick
		for _, a := range addrs {
			tst.send(port.NewReadPacket(a, 64))
			q.Run()
			last = tst.lastTk
		}
		return last
	}
	// Same row: sequential blocks within one 8 KiB row buffer.
	sameRow := measure([]uint64{0, 64, 128, 192})
	// Same bank, different rows: stride of rowBuffer*banks.
	cfg := DDR4Config(1)
	stride := uint64(cfg.RowBufferBytes * cfg.BanksPerChannel)
	diffRow := measure([]uint64{0, stride, 2 * stride, 3 * stride})
	if sameRow >= diffRow {
		t.Fatalf("row hits (%d) not faster than misses (%d)", sameRow, diffRow)
	}
}

func TestDRAMBandwidthScalesWithChannels(t *testing.T) {
	run := func(channels int) sim.Tick {
		q := sim.NewEventQueue()
		d := NewDRAMCtrl(DDR4Config(channels), q)
		tst := newMemTester(q)
		port.Bind(tst.p, d.Port())
		for i := 0; i < 256; i++ {
			tst.send(port.NewReadPacket(uint64(i)*64, 64))
		}
		q.Run()
		if tst.resps != 256 {
			t.Fatalf("resps = %d", tst.resps)
		}
		return tst.lastTk
	}
	t1 := run(1)
	t4 := run(4)
	speedup := float64(t1) / float64(t4)
	if speedup < 2.0 {
		t.Fatalf("4ch speedup %.2f over 1ch, want >= 2", speedup)
	}
}

func TestDRAMQueueBackPressure(t *testing.T) {
	q := sim.NewEventQueue()
	cfg := DDR4Config(1)
	d := NewDRAMCtrl(cfg, q)
	tst := newMemTester(q)
	port.Bind(tst.p, d.Port())
	// Flood with more reads than the queue holds; all must eventually finish.
	const n = 300
	for i := 0; i < n; i++ {
		tst.send(port.NewReadPacket(uint64(i)*64, 64))
	}
	if !tst.stalled {
		t.Fatal("expected back-pressure with 300 reads into a 64-deep queue")
	}
	q.Run()
	if tst.resps != n {
		t.Fatalf("resps = %d, want %d", tst.resps, n)
	}
}

func TestDRAMApproachesPeakBandwidth(t *testing.T) {
	// Sequential reads (row hits) should achieve a large fraction of peak.
	q := sim.NewEventQueue()
	cfg := DDR4Config(1)
	d := NewDRAMCtrl(cfg, q)
	tst := newMemTester(q)
	port.Bind(tst.p, d.Port())
	const n = 2000
	for i := 0; i < n; i++ {
		tst.send(port.NewReadPacket(uint64(i)*64, 64))
	}
	q.Run()
	elapsed := float64(tst.lastTk) * 1e-12 // seconds
	gbs := float64(n*64) / elapsed / 1e9
	peak := cfg.PeakBandwidthGBs()
	if gbs < 0.7*peak || gbs > 1.05*peak {
		t.Fatalf("achieved %.1f GB/s, peak %.1f GB/s — out of [70%%,105%%]", gbs, peak)
	}
	st := d.Stats()
	if st.RowHitRate() < 0.9 {
		t.Fatalf("sequential row hit rate %.2f too low", st.RowHitRate())
	}
}

func TestDRAMWriteDrainHysteresis(t *testing.T) {
	q := sim.NewEventQueue()
	cfg := DDR4Config(1)
	d := NewDRAMCtrl(cfg, q)
	tst := newMemTester(q)
	port.Bind(tst.p, d.Port())
	buf := make([]byte, 64)
	// Fill write queue beyond the high watermark, interleaved with reads;
	// everything must complete and reads must still be answered.
	for i := 0; i < 200; i++ {
		tst.send(port.NewWritePacket(uint64(i)*64, buf))
		if i%4 == 0 {
			tst.send(port.NewReadPacket(uint64(i)*64, 64))
		}
	}
	q.Run()
	st := d.Stats()
	if st.Writes != 200 || st.RetiredRds != 50 {
		t.Fatalf("writes=%d reads=%d", st.Writes, st.RetiredRds)
	}
}

func TestConfigByName(t *testing.T) {
	for _, name := range TechNames() {
		cfg, ok := ConfigByName(name)
		if !ok || cfg.Name != name {
			t.Fatalf("ConfigByName(%q) failed", name)
		}
	}
	if _, ok := ConfigByName("DDR3"); ok {
		t.Fatal("unknown tech accepted")
	}
}

func TestPeakBandwidthTable1(t *testing.T) {
	// Paper Table 1: DDR4 18.75 GB/s/channel, GDDR5 112 GB/s, HBM 128 GB/s.
	checks := []struct {
		cfg  DRAMConfig
		want float64
	}{
		{DDR4Config(1), 18.75},
		{DDR4Config(4), 75.0},
		{GDDR5Config(), 112.0},
		{HBMConfig(), 128.0},
	}
	for _, c := range checks {
		got := c.cfg.PeakBandwidthGBs()
		if got < 0.95*c.want || got > 1.05*c.want {
			t.Fatalf("%s peak %.2f GB/s, want ~%.2f", c.cfg.Name, got, c.want)
		}
	}
}

func TestChannelInterleaving(t *testing.T) {
	d := NewDRAMCtrl(DDR4Config(4), sim.NewEventQueue())
	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		ch, _, _ := d.route(uint64(i) * 64)
		seen[ch] = true
	}
	if len(seen) != 4 {
		t.Fatalf("blocks spread over %d channels, want 4", len(seen))
	}
}

func BenchmarkDRAMSequentialReads(b *testing.B) {
	q := sim.NewEventQueue()
	d := NewDRAMCtrl(DDR4Config(2), q)
	tst := newMemTester(q)
	port.Bind(tst.p, d.Port())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tst.send(port.NewReadPacket(uint64(i%4096)*64, 64))
		q.Run()
	}
}

// TestDRAMRefusalIsFree pins the decide-before-you-build order of
// RecvTimingReq: a request refused for a full queue costs no allocation, and
// — over a flood of reads and writes that keeps both queues at their limit —
// every request record ever made is either queued or on the free list, each
// exactly once.
func TestDRAMRefusalIsFree(t *testing.T) {
	q := sim.NewEventQueue()
	cfg := DDR4Config(1)
	d := NewDRAMCtrl(cfg, q)
	tst := newMemTester(q)
	port.Bind(tst.p, d.Port())

	seen := map[*dramRequest]bool{}
	conserved := func(when string) {
		t.Helper()
		held := map[*dramRequest]bool{}
		hold := func(r *dramRequest) {
			if held[r] {
				t.Fatalf("%s: request record held twice", when)
			}
			held[r], seen[r] = true, true
		}
		for _, ch := range d.chans {
			for _, r := range ch.readQ {
				hold(r)
			}
			for _, r := range ch.writeQ {
				hold(r)
			}
		}
		free := make([]*dramRequest, d.reqs.Len())
		for i := range free {
			free[i] = d.reqs.Get()
		}
		for i := len(free) - 1; i >= 0; i-- {
			d.reqs.Put(free[i])
		}
		for _, r := range free {
			hold(r)
		}
		if len(held) != len(seen) {
			t.Fatalf("%s: %d request records made, %d queued or free", when, len(seen), len(held))
		}
	}

	const n = 600
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			tst.send(port.NewWritePacket(uint64(i)*64, make([]byte, 64)))
		} else {
			tst.send(port.NewReadPacket(uint64(i)*64, 64))
		}
	}
	if !tst.stalled {
		t.Fatal("expected back-pressure")
	}
	conserved("flooded")

	refused := tst.pending[0]
	if allocs := testing.AllocsPerRun(100, func() {
		if d.RecvTimingReq(refused) {
			t.Fatal("a full queue accepted a request")
		}
	}); allocs != 0 {
		t.Fatalf("a refused request allocates %.1f times, want 0", allocs)
	}

	for i := 0; q.Step(); i++ {
		if i%97 == 0 {
			conserved("draining")
		}
	}
	conserved("drained")
	if reads, writes := d.QueueOccupancy(); reads != 0 || writes != 0 || d.reqs.Len() != len(seen) {
		t.Fatalf("drained: %d reads and %d writes queued, %d of %d records free", reads, writes, d.reqs.Len(), len(seen))
	}
	if len(seen) > cfg.ReadQueueDepth+cfg.WriteQueueDepth {
		t.Fatalf("%d request records made for queues of %d+%d", len(seen), cfg.ReadQueueDepth, cfg.WriteQueueDepth)
	}
}

// TestPooledPostedWriteHandOff: a posted write's queued entry outlives its
// response, so the write queue holds a pooled WriteReq beside its requestor.
// A requestor that releases the response before the write drains leaves the
// packet with the queue, which returns it to the pool when the write issues;
// a third Release panics. A pooled writeback, which owes no response, has the
// queue as its only holder.
func TestPooledPostedWriteHandOff(t *testing.T) {
	q := sim.NewEventQueue()
	d := NewDRAMCtrl(DDR4Config(1), q)
	rel := &releaser{}
	req := port.NewRequestPort("releaser", rel)
	port.Bind(req, d.Port())

	var pool port.PacketPool
	send := func(pkt *port.Packet) {
		t.Helper()
		if !req.SendTimingReq(pkt) {
			t.Fatalf("%s %#x refused", pkt.Cmd, pkt.Addr)
		}
	}
	// Reads queued first keep the write waiting behind them: the controller
	// serves reads before a write queue below its high watermark.
	for i := 0; i < 16; i++ {
		rd := pool.GetRead(uint64(0x10000+i*64), 64)
		send(rd)
	}
	w := pool.Get(port.WriteReq, 0xc0, 8)
	send(w)
	wb := pool.Get(port.WritebackDirty, 0x100, 8)
	send(wb)

	for rel.writes == 0 && q.Step() {
	}
	if rel.writes != 1 {
		t.Fatal("the posted write was never answered")
	}
	if _, writes := d.QueueOccupancy(); writes != 2 {
		t.Fatalf("%d writes queued when the response was released, want the posted write and the writeback", writes)
	}
	if probe := pool.Get(port.ReadReq, 0, 8); probe == w || probe == wb {
		t.Fatal("a packet the write queue holds was recycled")
	} else {
		probe.Release()
	}

	q.Run()
	if _, writes := d.QueueOccupancy(); writes != 0 {
		t.Fatalf("%d writes still queued", writes)
	}
	// Both writes drained: the queue's releases were the last, so the pool
	// hands their packets out again among the ones it holds.
	back := map[*port.Packet]bool{}
	for i := 0; i < 19; i++ {
		back[pool.Get(port.ReadReq, 0, 8)] = true
	}
	if !back[w] || !back[wb] {
		t.Fatal("the drained writes did not return to the pool")
	}
	for p := range back {
		p.Release()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a third Release of the posted write did not panic")
		}
	}()
	w.Release()
}
