package rtlobject

import (
	"testing"

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
	if pkt.Cmd == port.ReadResp {
		pkt.AllocateData()
		for i := range pkt.Data {
			pkt.Data[i] = byte(pkt.Addr)
		}
	}
	m.rq.Schedule(pkt, m.q.Now()+m.latency)
	m.q.ScheduleFunc("memfree", m.q.Now()+m.latency, func() {
		m.inflight--
		m.portR.SendRetryReq()
	})
	return true
}

func (m *simpleMem) RecvRespRetry() { m.rq.RecvRespRetry() }

func setup(t *testing.T, cfg Config, w Wrapper, memLat sim.Tick, memCap int) (*sim.EventQueue, *RTLObject, *simpleMem) {
	t.Helper()
	q := sim.NewEventQueue()
	core := sim.NewClockDomain("cpu", q, 2_000_000_000)
	r := New(cfg, core, w)
	mem := newSimpleMem(q, memLat, memCap)
	port.Bind(r.MemPort(0), mem.portR)
	return q, r, mem
}

func TestMemoryRoundTrip(t *testing.T) {
	w := &echoWrapper{
		toIssue: []MemRequest{{ID: 1, Addr: 0x40, Size: 64}},
		needed:  1,
	}
	irqs := 0
	_, r, _ := setup(t, Config{Name: "dev"}, w, 1000, 8)
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
	if w.responses[0].ID != 1 || w.responses[0].Data[0] != 0x40 {
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

func TestMaxInflightEnforced(t *testing.T) {
	const n = 32
	var reqs []MemRequest
	for i := 0; i < n; i++ {
		reqs = append(reqs, MemRequest{ID: uint64(i + 1), Addr: uint64(i) * 64, Size: 64})
	}
	// Issue all in one tick by front-loading.
	w := &burstWrapper{reqs: reqs}
	_, r, mem := setup(t, Config{Name: "dev", MaxInflight: 4}, w, 5000, 64)
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
	if mem.seen != n {
		t.Fatalf("memory saw %d requests, want %d", mem.seen, n)
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
	q := sim.NewEventQueue()
	core := sim.NewClockDomain("cpu", q, 2_000_000_000)
	r := New(Config{Name: "dev", TLB: tlb}, core, w)
	mem := newSimpleMem(q, 100, 8)
	port.Bind(r.MemPort(0), mem.portR)
	var seenAddr uint64
	origRecv := mem.portR
	_ = origRecv
	r.Start()
	q.RunUntil(10 * sim.Microsecond)
	r.Stop()
	if len(w.responses) != 1 {
		t.Fatalf("no response")
	}
	// The simpleMem echoes the low byte of the translated address.
	if w.responses[0].Data[0] != 0x40 {
		t.Fatalf("data byte %#x", w.responses[0].Data[0])
	}
	if tlb.Hits != 1 {
		t.Fatalf("TLB hits = %d, want 1", tlb.Hits)
	}
	_ = seenAddr
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
	_, r, mem := setup(t, Config{Name: "dev"}, w, 2000, 1)
	r.Start()
	r.dom.Queue().RunUntil(sim.Millisecond)
	r.Stop()
	if mem.seen != 10 || len(w.responses) != 10 {
		t.Fatalf("seen=%d responses=%d, want 10/10", mem.seen, len(w.responses))
	}
}
