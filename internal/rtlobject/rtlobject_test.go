package rtlobject

import (
	"bytes"
	"testing"

	"gem5rtl/internal/mem"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

// echoWrapper is a minimal RTL model stand-in: it issues a programmed list
// of memory requests (one per tick), records responses, and answers CPU
// requests by echoing the address. It raises the interrupt when all memory
// responses have arrived.
type echoWrapper struct {
	toIssue   []MemRequest
	responses []MemResponse
	cpuSeen   []CPURequest
	resets    int
	ticks     uint64
	needed    int
}

func (w *echoWrapper) Name() string { return "echo" }
func (w *echoWrapper) Reset()       { w.resets++; w.responses = nil; w.ticks = 0 }

func (w *echoWrapper) Tick(in *Input) *Output {
	w.ticks++
	out := &Output{}
	for _, resp := range in.MemResponses {
		// Kept past the call, so the payload is copied (see MemResponse).
		resp.Data = append([]byte(nil), resp.Data...)
		w.responses = append(w.responses, resp)
	}
	for _, req := range in.CPURequests {
		w.cpuSeen = append(w.cpuSeen, req)
		out.CPUResponses = append(out.CPUResponses, CPUResponse{
			ID:   req.ID,
			Data: []byte{byte(req.Addr), byte(req.Addr >> 8), 0, 0},
		})
	}
	if len(w.toIssue) > 0 {
		out.MemRequests = append(out.MemRequests, w.toIssue[0])
		w.toIssue = w.toIssue[1:]
	}
	out.Interrupt = w.needed > 0 && len(w.responses) >= w.needed
	return out
}

// simpleMem answers reads/writes with fixed latency and limited concurrency.
// Like every memory controller it models timing only: the bytes are in the
// store the RTLObject reads and writes.
type simpleMem struct {
	q        *sim.EventQueue
	portR    *port.ResponsePort
	rq       *port.RespQueue
	latency  sim.Tick
	capacity int
	inflight int
	seen     int
}

func newSimpleMem(q *sim.EventQueue, latency sim.Tick, capacity int) *simpleMem {
	m := &simpleMem{q: q, latency: latency, capacity: capacity}
	m.portR = port.NewResponsePort("mem", m)
	m.rq = port.NewRespQueue("mem", q, m.portR)
	return m
}

func (m *simpleMem) RecvTimingReq(pkt *port.Packet) bool {
	if m.inflight >= m.capacity {
		return false
	}
	m.inflight++
	m.seen++
	pkt.MakeResponse()
	m.rq.Schedule(pkt, m.q.Now()+m.latency)
	m.q.ScheduleFunc("memfree", m.q.Now()+m.latency, func() {
		m.inflight--
		m.portR.SendRetryReq()
	})
	return true
}

func (m *simpleMem) RecvRespRetry() { m.rq.RecvRespRetry() }

// setup builds an object over an empty store, its memory port 0 bound to a
// simpleMem.
func setup(t *testing.T, cfg Config, w Wrapper, memLat sim.Tick, memCap int) (*sim.EventQueue, *RTLObject, *simpleMem) {
	t.Helper()
	return setupStore(t, cfg, mem.NewStorage(), w, memLat, memCap)
}

// setupStore is setup over the given store.
func setupStore(t *testing.T, cfg Config, store *mem.Storage, w Wrapper, memLat sim.Tick, memCap int) (*sim.EventQueue, *RTLObject, *simpleMem) {
	t.Helper()
	q := sim.NewEventQueue()
	core := sim.NewClockDomain("cpu", q, 2_000_000_000)
	r := New(cfg, core, store, w)
	m := newSimpleMem(q, memLat, memCap)
	port.Bind(r.MemPort(0), m.portR)
	return q, r, m
}

// fill writes n copies of b at addr.
func fill(store *mem.Storage, addr uint64, b byte, n int) {
	store.Write(addr, bytes.Repeat([]byte{b}, n))
}

func TestMemoryRoundTrip(t *testing.T) {
	w := &echoWrapper{
		toIssue: []MemRequest{{ID: 1, Addr: 0x40, Size: 64}},
		needed:  1,
	}
	irqs := 0
	store := mem.NewStorage()
	fill(store, 0x40, 0x40, 64)
	_, r, _ := setupStore(t, Config{Name: "dev"}, store, w, 1000, 8)
	r.OnInterrupt(func(level bool) {
		if level {
			irqs++
		}
	})
	r.Start()
	q := r.dom.Queue()
	q.RunUntil(20 * sim.Microsecond)
	r.Stop()
	if w.resets != 1 {
		t.Fatalf("wrapper reset %d times, want 1", w.resets)
	}
	if len(w.responses) != 1 {
		t.Fatalf("wrapper got %d responses, want 1", len(w.responses))
	}
	if w.responses[0].ID != 1 || len(w.responses[0].Data) != 64 || w.responses[0].Data[63] != 0x40 {
		t.Fatalf("bad response: %+v", w.responses[0])
	}
	if w.responses[0].Latency < 1000 {
		t.Fatalf("latency %d < memory latency", w.responses[0].Latency)
	}
	if irqs != 1 {
		t.Fatalf("got %d interrupts, want 1", irqs)
	}
	st := r.Stats()
	if st.MemReads != 1 || st.RetiredMem != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// dmaWrapper writes a pattern by DMA, blocks on each of its memory ports,
// and once every write is acknowledged reads all of it back.
type dmaWrapper struct {
	blocks   int
	base     [NumMemPorts]uint64
	phase    int // 0: issue writes, 1: await acks, 2: reads issued
	acks     int
	readBack map[uint64][]byte // request ID -> payload
}

func (w *dmaWrapper) Name() string { return "dma" }
func (w *dmaWrapper) Reset()       {}

// pattern is block k's contents: no two blocks, and no byte of one, alike.
func pattern(k int) []byte {
	b := make([]byte, 64)
	for i := range b {
		b[i] = byte(k*7 + i + 1)
	}
	return b
}

// request is the k-th access on port p; IDs number writes and reads apart.
func (w *dmaWrapper) request(p, k int, write bool) MemRequest {
	req := MemRequest{ID: uint64(p*w.blocks + k), Addr: w.base[p] + uint64(k)*64, Size: 64, Port: p}
	if write {
		req.Write, req.Data = true, pattern(p*w.blocks+k)
	} else {
		req.ID += uint64(NumMemPorts * w.blocks)
	}
	return req
}

func (w *dmaWrapper) Tick(in *Input) *Output {
	out := &Output{}
	for _, resp := range in.MemResponses {
		if resp.Write {
			w.acks++
		} else {
			w.readBack[resp.ID] = append([]byte(nil), resp.Data...)
		}
	}
	switch {
	case w.phase == 0:
		for p := 0; p < NumMemPorts; p++ {
			for k := 0; k < w.blocks; k++ {
				out.MemRequests = append(out.MemRequests, w.request(p, k, true))
			}
		}
		w.phase = 1
	case w.phase == 1 && w.acks == NumMemPorts*w.blocks:
		for p := 0; p < NumMemPorts; p++ {
			for k := 0; k < w.blocks; k++ {
				out.MemRequests = append(out.MemRequests, w.request(p, k, false))
			}
		}
		w.phase = 2
	}
	return out
}

// TestDMARoundTrip writes a pattern by DMA through an ideal memory (port 0)
// and a single-channel DRAM (port 1), then reads it back with a second DMA:
// the controllers carry no bytes, so the pattern reaches the reads only
// through the store the object writes when a write is accepted. The writes
// outnumber the DRAM's write queue, so some are refused and sent again.
func TestDMARoundTrip(t *testing.T) {
	const blocks = 256
	w := &dmaWrapper{blocks: blocks, base: [NumMemPorts]uint64{0x100000, 0x200000}, readBack: map[uint64][]byte{}}
	q := sim.NewEventQueue()
	core := sim.NewClockDomain("cpu", q, 2_000_000_000)
	store := mem.NewStorage()
	r := New(Config{Name: "dev", ClockDivider: 2}, core, store, w)
	ideal := mem.NewIdealMemory("ideal", q, 20*sim.Nanosecond)
	dram := mem.NewDRAMCtrl(mem.DDR4Config(1), q)
	port.Bind(r.MemPort(0), ideal.Port())
	port.Bind(r.MemPort(1), dram.Port())
	if blocks <= dram.Config().WriteQueueDepth {
		t.Fatalf("%d writes fit the DRAM's %d-entry write queue: nothing is refused", blocks, dram.Config().WriteQueueDepth)
	}
	r.Start()
	q.RunUntil(100 * sim.Microsecond)
	r.Stop()
	if w.phase != 2 || len(w.readBack) != NumMemPorts*blocks {
		t.Fatalf("phase %d, %d of %d acks, %d of %d reads back", w.phase, w.acks, NumMemPorts*blocks, len(w.readBack), NumMemPorts*blocks)
	}
	for p := 0; p < NumMemPorts; p++ {
		for k := 0; k < blocks; k++ {
			req := w.request(p, k, false)
			want := pattern(p*blocks + k)
			if got := w.readBack[req.ID]; !bytes.Equal(got, want) {
				t.Fatalf("port %d block %d read back % x, want % x", p, k, got, want)
			}
			got := make([]byte, 64)
			store.Read(req.Addr, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("store holds % x at %#x, want % x", got, req.Addr, want)
			}
		}
	}
}

func TestMaxInflightEnforced(t *testing.T) {
	const n = 32
	var reqs []MemRequest
	for i := 0; i < n; i++ {
		reqs = append(reqs, MemRequest{ID: uint64(i + 1), Addr: uint64(i) * 64, Size: 64})
	}
	// Issue all in one tick by front-loading.
	w := &burstWrapper{reqs: reqs}
	_, r, m := setup(t, Config{Name: "dev", MaxInflight: 4}, w, 5000, 64)
	maxSeen := 0
	probe := sim.NewTicker("probe", r.dom, sim.PriStats, func(uint64) bool {
		if c := r.InflightCount(); c > maxSeen {
			maxSeen = c
		}
		return true
	})
	r.Start()
	probe.Start()
	q := r.dom.Queue()
	q.RunUntil(sim.Millisecond)
	probe.Stop()
	r.Stop()
	if maxSeen > 4 {
		t.Fatalf("observed %d in-flight, cap is 4", maxSeen)
	}
	if m.seen != n {
		t.Fatalf("memory saw %d requests, want %d", m.seen, n)
	}
	if len(w.responses) != n {
		t.Fatalf("wrapper got %d responses, want %d", len(w.responses), n)
	}
	if r.Stats().StallCycles == 0 {
		t.Fatal("expected stall cycles with a tight in-flight cap")
	}
}

// burstWrapper issues all requests on the first tick.
type burstWrapper struct {
	reqs      []MemRequest
	responses []MemResponse
	issued    bool
}

func (w *burstWrapper) Name() string { return "burst" }
func (w *burstWrapper) Reset()       { w.issued = false; w.responses = nil }
func (w *burstWrapper) Tick(in *Input) *Output {
	out := &Output{}
	w.responses = append(w.responses, in.MemResponses...)
	if !w.issued {
		out.MemRequests = w.reqs
		w.issued = true
	}
	return out
}

func TestCPUPortRequestResponse(t *testing.T) {
	w := &echoWrapper{}
	q, r, _ := setup(t, Config{Name: "dev"}, w, 100, 8)
	// A fake CPU master sending a read to the device's CPU-side port 0.
	cpu := &fakeMaster{q: q}
	cpu.p = port.NewRequestPort("cpu", cpu)
	port.Bind(cpu.p, r.CPUPort(0))
	r.Start()
	pkt := port.NewReadPacket(0x1234, 4)
	if !cpu.p.SendTimingReq(pkt) {
		t.Fatal("device refused CPU request")
	}
	q.RunUntil(10 * sim.Microsecond)
	r.Stop()
	if len(cpu.resps) != 1 {
		t.Fatalf("CPU got %d responses, want 1", len(cpu.resps))
	}
	if cpu.resps[0].Data[0] != 0x34 || cpu.resps[0].Data[1] != 0x12 {
		t.Fatalf("bad echo data: %v", cpu.resps[0].Data)
	}
	if len(w.cpuSeen) != 1 || w.cpuSeen[0].Addr != 0x1234 || w.cpuSeen[0].Port != 0 {
		t.Fatalf("wrapper saw %+v", w.cpuSeen)
	}
}

type fakeMaster struct {
	q     *sim.EventQueue
	p     *port.RequestPort
	resps []*port.Packet
}

func (f *fakeMaster) RecvTimingResp(pkt *port.Packet) bool {
	f.resps = append(f.resps, pkt)
	return true
}
func (f *fakeMaster) RecvReqRetry() {}

func TestClockDividerSlowsModel(t *testing.T) {
	w1 := &echoWrapper{}
	_, r1, _ := setup(t, Config{Name: "fast", ClockDivider: 1}, w1, 100, 8)
	w2 := &echoWrapper{}
	_, r2, _ := setup(t, Config{Name: "slow", ClockDivider: 4}, w2, 100, 8)
	r1.Start()
	r2.Start()
	r1.dom.Queue().RunUntil(100 * sim.Nanosecond)
	r2.dom.Queue().RunUntil(100 * sim.Nanosecond)
	r1.Stop()
	r2.Stop()
	if w1.ticks == 0 || w2.ticks == 0 {
		t.Fatal("models did not tick")
	}
	ratio := float64(w1.ticks) / float64(w2.ticks)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("tick ratio %.2f, want ~4 (divider)", ratio)
	}
}

func TestTLBTranslation(t *testing.T) {
	tlb := NewPageTLB(12)
	tlb.Map(0x10, 0x80) // 0x10000 -> 0x80000
	w := &echoWrapper{toIssue: []MemRequest{{ID: 1, Addr: 0x10040, Size: 64}}}
	store := mem.NewStorage()
	fill(store, 0x10040, 0xEE, 64) // the untranslated address
	fill(store, 0x80040, 0x40, 64) // the translated one
	q, r, _ := setupStore(t, Config{Name: "dev", TLB: tlb}, store, w, 100, 8)
	r.Start()
	q.RunUntil(10 * sim.Microsecond)
	r.Stop()
	if len(w.responses) != 1 {
		t.Fatalf("no response")
	}
	// The payload is read from the store at the translated address.
	if w.responses[0].Data[0] != 0x40 {
		t.Fatalf("data byte %#x", w.responses[0].Data[0])
	}
	if tlb.Hits != 1 {
		t.Fatalf("TLB hits = %d, want 1", tlb.Hits)
	}
}

func TestIdentityTLB(t *testing.T) {
	var tlb IdentityTLB
	if tlb.Translate(0xABC) != 0xABC {
		t.Fatal("identity TLB translated")
	}
}

func TestPageTLBPassthroughAndRange(t *testing.T) {
	tlb := NewPageTLB(12)
	tlb.MapRange(0x100, 0x200, 4)
	if got := tlb.Translate(0x102<<12 | 0x34); got != 0x202<<12|0x34 {
		t.Fatalf("mapped translate = %#x", got)
	}
	if got := tlb.Translate(0x999<<12 | 0x1); got != 0x999<<12|0x1 {
		t.Fatalf("unmapped passthrough = %#x", got)
	}
	if tlb.Hits != 1 || tlb.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d", tlb.Hits, tlb.Misses)
	}
}

func TestPortBackPressureQueuesRequests(t *testing.T) {
	// Memory with capacity 1 and long latency: the object must queue and
	// retry, never dropping requests.
	var reqs []MemRequest
	for i := 0; i < 10; i++ {
		reqs = append(reqs, MemRequest{ID: uint64(i + 1), Addr: uint64(i) * 64, Size: 64})
	}
	w := &burstWrapper{reqs: reqs}
	_, r, m := setup(t, Config{Name: "dev"}, w, 2000, 1)
	r.Start()
	r.dom.Queue().RunUntil(sim.Millisecond)
	r.Stop()
	if m.seen != 10 || len(w.responses) != 10 {
		t.Fatalf("seen=%d responses=%d, want 10/10", m.seen, len(w.responses))
	}
}
