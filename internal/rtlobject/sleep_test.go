package rtlobject

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

// The sleep differential drives two rigs through one seeded script: one whose
// RTLObject sleeps between its model's inputs, and the oracle — the same
// code, built while IgnoreSleepersForTest is on, ticking the same model on
// every clock edge. After every action the two must be indistinguishable:
// same bridge Stats, ticker cycle, model counters (which fold in the cycle
// each input was consumed on), dispatch count and, at save points, the same
// checkpoint bytes. Nothing in the oracle knows what sleeping is, so
// whatever the sleeper credits, holds or wakes for has to come out where
// ticking would have put it.

// napModel is a synthetic Sleeper: a small DMA program of bursts, waits and
// compute stretches, quiet in the four ways the NVDLA is and honest about it.
type napModel struct {
	prog []napStep

	pc               int
	reads, writes    int // left to issue in the current burst
	computeLeft      int
	readsOut         int // outstanding; may go negative after a Reset
	writesOut        int
	nextID           uint64
	irq              bool
	c                napCounters
	out              Output
	fault            string // first contract violation seen
	lastTickCycle    uint64
	lastTickInputs   int
	lastAdvanceCount uint64
	lastRespCycle    uint64 // the cycle that consumed the latest response
}

type napStep struct {
	kind uint8
	a, b int
}

const (
	napBurst   = iota // issue a reads and b writes, three a cycle
	napAwait          // stall until no read is outstanding
	napCompute        // busy for a cycles, then toggle the interrupt
	napDrain          // stall until no write is outstanding
	napIdle           // idle until a CPU request (or a poke) arrives
)

// napCounters is the model state the two machines are compared on.
type napCounters struct {
	Cycles, Active, Busy, Stall, Idle uint64
	// Digest folds in (cycle, id, kind) of every input at the cycle that
	// consumed it: an input handed over one cycle early or late changes it.
	Digest uint64
}

func (m *napModel) fold(vs ...uint64) {
	for _, v := range vs {
		m.c.Digest = (m.c.Digest ^ v) * 1099511628211
	}
}

func (m *napModel) Name() string { return "nap" }

func (m *napModel) Reset() {
	m.readsOut, m.writesOut, m.irq = 0, 0, false
	m.enter(0)
}

func (m *napModel) enter(pc int) {
	m.pc = pc % len(m.prog)
	s := m.prog[m.pc]
	switch s.kind {
	case napBurst:
		m.reads, m.writes = s.a, s.b
	case napCompute:
		m.computeLeft = s.a
	}
}

// consume is the response half of a cycle.
func (m *napModel) consume(resps []MemResponse) {
	for _, r := range resps {
		m.lastRespCycle = m.c.Cycles
		if r.Write {
			m.writesOut--
			m.fold(m.c.Cycles, r.ID, 1)
		} else {
			m.readsOut--
			m.fold(m.c.Cycles, r.ID, uint64(len(r.Data)))
		}
	}
}

func (m *napModel) Tick(in *Input) *Output {
	m.lastTickCycle, m.lastTickInputs = in.Cycle, len(in.MemResponses)+len(in.CPURequests)
	if in.Cycle != m.c.Cycles && m.fault == "" {
		m.fault = fmt.Sprintf("Tick handed cycle %d after %d cycles", in.Cycle, m.c.Cycles)
	}
	out := &m.out
	out.MemRequests = out.MemRequests[:0]
	out.CPUResponses = out.CPUResponses[:0]
	m.consume(in.MemResponses)
	for _, req := range in.CPURequests {
		m.fold(m.c.Cycles, req.ID, req.Addr)
		out.CPUResponses = append(out.CPUResponses, CPUResponse{ID: req.ID, Data: []byte{byte(m.c.Cycles), 0, 0, 0}})
		m.poke()
	}
	switch s := m.prog[m.pc]; s.kind {
	case napBurst:
		m.c.Active++
		for n := 0; n < 3 && m.reads+m.writes > 0; n++ {
			m.nextID++
			req := MemRequest{ID: m.nextID, Addr: m.nextID * 64, Size: 64, Port: int(m.nextID % NumMemPorts)}
			if m.reads > 0 {
				m.reads--
				m.readsOut++
			} else {
				m.writes--
				m.writesOut++
				req.Write, req.Size, req.Data = true, 8, make([]byte, 8)
			}
			out.MemRequests = append(out.MemRequests, req)
		}
		if m.reads+m.writes == 0 {
			m.enter(m.pc + 1)
		}
	case napAwait:
		m.c.Stall++
		if m.readsOut <= 0 {
			m.enter(m.pc + 1)
		}
	case napCompute:
		m.c.Busy++
		if m.computeLeft--; m.computeLeft == 0 {
			m.irq = !m.irq
			m.enter(m.pc + 1)
		}
	case napDrain:
		m.c.Stall++
		if m.writesOut <= 0 {
			m.enter(m.pc + 1)
		}
	case napIdle:
		m.c.Idle++
	}
	m.c.Cycles++
	out.Interrupt = m.irq
	return out
}

// poke is the model's back door (and what a CPU request does): it ends an
// idle step.
func (m *napModel) poke() {
	if m.prog[m.pc].kind == napIdle {
		m.enter(m.pc + 1)
	}
}

func (m *napModel) Quiet() (uint64, InputKind) {
	switch m.prog[m.pc].kind {
	case napAwait:
		if m.readsOut > 0 {
			return Forever, ReadData
		}
	case napCompute:
		return uint64(m.computeLeft - 1), 0
	case napDrain:
		if m.writesOut > 0 {
			return Forever, WriteAck
		}
	case napIdle:
		return Forever, 0
	}
	return 0, 0
}

func (m *napModel) Advance(n uint64, held []MemResponse) {
	m.lastAdvanceCount = n
	m.consume(held)
	switch m.prog[m.pc].kind {
	case napAwait, napDrain:
		m.c.Stall += n
	case napCompute:
		if n >= uint64(m.computeLeft) && m.fault == "" {
			m.fault = fmt.Sprintf("Advance(%d) with %d compute cycles left", n, m.computeLeft)
		}
		m.computeLeft -= int(n)
		m.c.Busy += n
	case napIdle:
		m.c.Idle += n
	default:
		if m.fault == "" {
			m.fault = fmt.Sprintf("Advance(%d) in a step that is not quiet", n)
		}
	}
	m.c.Cycles += n
}

func (m *napModel) SaveState(w *ckpt.Writer) error {
	w.Section("nap")
	for _, v := range []int{m.pc, m.reads, m.writes, m.computeLeft, m.readsOut + 1<<20, m.writesOut + 1<<20} {
		w.Int(v)
	}
	w.U64(m.nextID)
	w.Bool(m.irq)
	for _, v := range []uint64{m.c.Cycles, m.c.Active, m.c.Busy, m.c.Stall, m.c.Idle, m.c.Digest} {
		w.U64(v)
	}
	return w.Err()
}

func (m *napModel) RestoreState(r *ckpt.Reader) error {
	r.Section("nap")
	m.pc, m.reads, m.writes, m.computeLeft = r.Len(), r.Len(), r.Len(), r.Len()
	m.readsOut, m.writesOut = r.Len()-1<<20, r.Len()-1<<20
	m.nextID = r.U64()
	m.irq = r.Bool()
	for _, p := range []*uint64{&m.c.Cycles, &m.c.Active, &m.c.Busy, &m.c.Stall, &m.c.Idle, &m.c.Digest} {
		*p = r.U64()
	}
	return r.Err()
}

// napRNG is splitmix64 with its state in reach of a checkpoint.
type napRNG struct{ s uint64 }

func (r *napRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *napRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// scriptMem answers every request after a latency drawn from its own seeded
// stream — zero, the exact distance to a model clock edge, or anything — and
// now and then refuses one, retrying after a delay drawn the same way. Its
// events are component-owned, so all of it checkpoints. It keeps its own
// delivery list instead of a port.RespQueue: a zero-latency response
// scheduled from inside a delivery can sort ahead of the entry being
// delivered (its sender stamp is the drain event's, which may rank below the
// stamp of the event that queued the head), and RespQueue.drain then removes
// the wrong entry.
type scriptMem struct {
	q       *sim.EventQueue
	period  sim.Tick
	p       *port.ResponsePort
	drainEv *sim.Event
	retryEv *sim.Event
	rng     napRNG
	due     []scriptResp // sorted by (when, insertion)
}

type scriptResp struct {
	when sim.Tick
	pkt  *port.Packet
}

func newScriptMem(name string, q *sim.EventQueue, period sim.Tick, seed uint64) *scriptMem {
	m := &scriptMem{q: q, period: period, rng: napRNG{seed}}
	m.p = port.NewResponsePort(name, m)
	m.drainEv = sim.NewEvent(name+".drain", m.drain)
	m.retryEv = sim.NewEvent(name+".retry", m.p.SendRetryReq)
	return m
}

// delay draws a latency: a quarter zero, a quarter landing exactly on a model
// edge, the rest up to three cycles and a bit.
func (m *scriptMem) delay() sim.Tick {
	now := m.q.Now()
	switch m.rng.intn(4) {
	case 0:
		return 0
	case 1:
		edge := (now/m.period + 1 + sim.Tick(m.rng.intn(3))) * m.period
		return edge - now
	}
	return sim.Tick(1 + m.rng.intn(3*int(m.period)+17))
}

func (m *scriptMem) RecvTimingReq(pkt *port.Packet) bool {
	if m.rng.intn(6) == 0 && !m.retryEv.Scheduled() {
		m.q.Schedule(m.retryEv, m.q.Now()+m.delay())
		return false
	}
	pkt.MakeResponse()
	if pkt.Cmd == port.ReadResp {
		pkt.AllocateData()
	}
	e := scriptResp{m.q.Now() + m.delay(), pkt}
	i := len(m.due)
	for i > 0 && m.due[i-1].when > e.when {
		i--
	}
	m.due = append(m.due, scriptResp{})
	copy(m.due[i+1:], m.due[i:])
	m.due[i] = e
	m.arm()
	return true
}

func (m *scriptMem) arm() {
	if len(m.due) > 0 && (!m.drainEv.Scheduled() || m.drainEv.When() > m.due[0].when) {
		m.q.Reschedule(m.drainEv, m.due[0].when)
	}
}

func (m *scriptMem) drain() {
	for len(m.due) > 0 && m.due[0].when <= m.q.Now() {
		pkt := m.due[0].pkt
		m.due = m.due[1:]
		if !m.p.SendTimingResp(pkt) {
			panic("rtlobject refused a memory response")
		}
	}
	m.arm()
}

func (m *scriptMem) RecvRespRetry() {}

func (m *scriptMem) SaveState(w *ckpt.Writer) error {
	w.Section("scriptmem")
	w.U64(m.rng.s)
	sim.SaveEvent(w, m.drainEv)
	sim.SaveEvent(w, m.retryEv)
	w.Int(len(m.due))
	for _, e := range m.due {
		w.U64(uint64(e.when))
		port.SavePacket(w, e.pkt)
	}
	return m.p.SaveState(w)
}

func (m *scriptMem) RestoreState(r *ckpt.Reader) error {
	r.Section("scriptmem")
	m.rng.s = r.U64()
	m.q.RestoreEvent(r, m.drainEv)
	m.q.RestoreEvent(r, m.retryEv)
	m.due = nil
	for n := r.Len(); n > 0 && r.Err() == nil; n-- {
		m.due = append(m.due, scriptResp{sim.Tick(r.U64()), port.LoadPacket(r)})
	}
	return m.p.RestoreState(r)
}

// napHost is the SoC agent on the CPU-side port.
type napHost struct {
	p    *port.RequestPort
	got  int
	sent uint64
}

func (h *napHost) RecvTimingResp(*port.Packet) bool { h.got++; return true }
func (h *napHost) RecvReqRetry()                    {}

// send issues the host's next CSB access. Its packet ID is set, not minted,
// so both machines' checkpoints carry the same one.
func (h *napHost) send() {
	h.sent++
	keep := port.PacketIDMark()
	port.SetPacketIDForTest(1<<40 + h.sent)
	pkt := port.NewReadPacket(0x40+h.sent%4*4, 4)
	port.SetPacketIDForTest(keep)
	if !h.p.SendTimingReq(pkt) {
		panic("rtlobject refused a CPU-side request")
	}
}

// rank is the kernel's same-tick arbitration key for an event name (FNV-64a).
func rank(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// straddle returns names of the form prefix+"N"+suffix whose ranks fall below
// and above the rank of pivot: events that dispatch before and after it when
// all three share a tick and a priority.
func straddle(pivot, prefix, suffix string) (lo, hi string) {
	for i := 0; lo == "" || hi == ""; i++ {
		n := fmt.Sprintf("%s%d", prefix, i)
		switch {
		case lo == "" && rank(n+suffix) < rank(pivot):
			lo = n
		case hi == "" && rank(n+suffix) > rank(pivot):
			hi = n
		}
	}
	return lo, hi
}

const napPeriod = 1000 // model clock: 2 GHz core, divider 2

type napRig struct {
	q    *sim.EventQueue
	obj  *RTLObject
	m    *napModel
	mems [NumMemPorts]*scriptMem
	host *napHost
}

func napProgram(seed uint64) []napStep {
	r := napRNG{seed ^ 0x6e6170}
	prog := []napStep{{kind: napBurst, a: 5, b: 2}}
	for len(prog) < 24 {
		switch r.intn(6) {
		case 0, 1:
			prog = append(prog, napStep{kind: napBurst, a: r.intn(12), b: r.intn(6)})
		case 2:
			prog = append(prog, napStep{kind: napAwait})
		case 3:
			prog = append(prog, napStep{kind: napCompute, a: 1 + r.intn(150)})
		case 4:
			prog = append(prog, napStep{kind: napDrain})
		case 5:
			prog = append(prog, napStep{kind: napIdle})
		}
	}
	return prog
}

// newNapRig builds one machine; oracle selects the per-cycle one. The two
// memories' response events rank on either side of the object's tick event,
// so a response landing on a model edge is seen before the tick of that edge
// from one of them and after it from the other.
func newNapRig(seed uint64, oracle bool) *napRig {
	r := &napRig{q: sim.NewEventQueue(), m: &napModel{prog: napProgram(seed)}}
	core := sim.NewClockDomain("cpu", r.q, 2_000_000_000)
	IgnoreSleepersForTest(oracle)
	r.obj = New(Config{Name: "dev", ClockDivider: 2, MaxInflight: 3}, core, r.m)
	IgnoreSleepersForTest(false)
	r.obj.SetPacketIDSpace(1)
	lo, hi := straddle("dev.tick", "mem", ".drain")
	for i, name := range []string{lo, hi} {
		r.mems[i] = newScriptMem(name, r.q, napPeriod, seed+uint64(i))
		port.Bind(r.obj.MemPort(i), r.mems[i].p)
	}
	r.host = &napHost{}
	r.host.p = port.NewRequestPort("host", r.host)
	port.Bind(r.host.p, r.obj.CPUPort(0))
	return r
}

func (r *napRig) parts() []ckpt.Checkpointable {
	return []ckpt.Checkpointable{r.q, r.obj, r.mems[0], r.mems[1]}
}

func (r *napRig) save(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	for _, c := range r.parts() {
		if err := c.SaveState(w); err != nil {
			t.Fatalf("save: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func (r *napRig) restore(t *testing.T, blob []byte) {
	t.Helper()
	rd := ckpt.NewReader(bytes.NewReader(blob))
	for _, c := range r.parts() {
		if err := c.RestoreState(rd); err != nil {
			t.Fatalf("restore: %v", err)
		}
	}
}

// napView is what the two machines are compared on after an action.
type napView struct {
	Now        sim.Tick
	Stats      Stats
	Cycle      uint64
	Model      napCounters
	Dispatched uint64
	HostGot    int
	Inflight   int
	Queued     int
}

func (r *napRig) view() napView {
	st := r.obj.Stats() // settles: the counters below are read after it
	return napView{
		Now: r.q.Now(), Stats: st, Cycle: r.obj.ticker.Cycle(), Model: r.m.c,
		Dispatched: r.q.Dispatched(), HostGot: r.host.got,
		Inflight: r.obj.InflightCount(), Queued: r.obj.QueuedCount(),
	}
}

// napPair is the sleeping machine and its oracle.
type napPair struct {
	t       *testing.T
	seed    uint64
	nap, or *napRig
	running bool
	elided  uint64 // by sleepers since replaced through a restore
	log     []string
}

func (p *napPair) each(fn func(*napRig)) { fn(p.nap); fn(p.or) }

func (p *napPair) failf(format string, args ...any) {
	p.t.Helper()
	tail := p.log
	if len(tail) > 12 {
		tail = tail[len(tail)-12:]
	}
	p.t.Fatalf("seed %d: %s\nlast actions: %v\nsleeper: last Tick cycle %d (%d inputs), last Advance(%d), asleep=%v from %d",
		p.seed, fmt.Sprintf(format, args...), tail,
		p.nap.m.lastTickCycle, p.nap.m.lastTickInputs, p.nap.m.lastAdvanceCount, p.nap.obj.asleep, p.nap.obj.sleepFrom)
}

func (p *napPair) compare() {
	p.t.Helper()
	if a, b := p.nap.view(), p.or.view(); a != b {
		p.failf("machines diverge\n sleeper %+v\n oracle  %+v", a, b)
	}
	for _, r := range []*napRig{p.nap, p.or} {
		if r.m.fault != "" {
			p.failf("model contract broken: %s", r.m.fault)
		}
	}
}

func (p *napPair) compareSaved() []byte {
	p.t.Helper()
	a, b := p.nap.save(p.t), p.or.save(p.t)
	if !bytes.Equal(a, b) {
		p.failf("checkpoints differ at tick %d (%d and %d bytes)", p.nap.q.Now(), len(a), len(b))
	}
	return a
}

// step applies one drawn action to both machines.
func (p *napPair) step(r *napRNG) {
	p.t.Helper()
	now := p.nap.q.Now()
	nextEdge := (now/napPeriod + 1) * napPeriod
	run := func(to sim.Tick) { p.each(func(g *napRig) { g.q.RunUntil(to) }) }
	switch op := r.intn(16); op {
	case 0:
		p.log = append(p.log, "run-to-edge")
		run(nextEdge)
	case 1:
		p.log = append(p.log, "run-short-of-edge")
		run(nextEdge - 1)
	case 2, 3, 4:
		d := sim.Tick(1 + r.intn(20000))
		p.log = append(p.log, fmt.Sprintf("run+%d", d))
		run(now + d)
	case 5:
		d := sim.Tick(1+r.intn(400)) * napPeriod
		p.log = append(p.log, fmt.Sprintf("run+%d", d))
		run(now + d)
	case 6, 7:
		// Two runs with nothing settled between them.
		d := sim.Tick(1 + r.intn(3000))
		p.log = append(p.log, fmt.Sprintf("run+%d,run-to-edge", d))
		run(now + d)
		run(((now+d)/napPeriod + 1) * napPeriod)
	case 8:
		p.log = append(p.log, "cpu-request")
		p.each(func(g *napRig) { g.host.send() })
	case 9:
		// The ordering trap: at a model edge, an event ordered after the
		// tick schedules, for that same tick, one ordered before it, and the
		// child delivers the input.
		p.log = append(p.log, "cpu-request-from-late-child")
		lo, hi := straddle("dev.tick", "trap", "")
		p.each(func(g *napRig) {
			g.q.ScheduleOneShot(hi, nextEdge, func() {
				g.q.ScheduleOneShot(lo, g.q.Now(), g.host.send)
			})
		})
		run(nextEdge)
	case 10:
		p.log = append(p.log, "poke")
		p.each(func(g *napRig) {
			g.obj.Wake()
			g.m.poke()
		})
	case 11:
		// Straight after a run, with the cycles it slept through still owed.
		run(now + sim.Tick(1+r.intn(7000)))
		if p.running {
			p.log = append(p.log, "stop")
			p.each(func(g *napRig) { g.obj.Stop() })
		} else {
			p.log = append(p.log, "start")
			p.each(func(g *napRig) { g.obj.Start() })
		}
		p.running = !p.running
	case 12, 13:
		p.log = append(p.log, "save")
		p.compareSaved()
	case 14:
		// Each machine continues from the other's checkpoint.
		p.log = append(p.log, "save-restore")
		blob := p.compareSaved()
		nap, or := newNapRig(p.seed, false), newNapRig(p.seed, true)
		nap.restore(p.t, blob)
		or.restore(p.t, blob)
		nap.host.got, or.host.got = p.nap.host.got, p.or.host.got
		nap.host.sent, or.host.sent = p.nap.host.sent, p.or.host.sent
		p.elided += p.nap.q.Elided()
		p.nap, p.or = nap, or
	case 15:
		p.log = append(p.log, "stats")
	}
	p.compare()
}

func runNapScript(t *testing.T, seed uint64, actions int) (elided, ticks uint64) {
	t.Helper()
	p := &napPair{t: t, seed: seed, nap: newNapRig(seed, false), or: newNapRig(seed, true), running: true}
	p.each(func(g *napRig) { g.obj.Start() })
	r := &napRNG{seed * 0x2545f4914f6cdd1d}
	for i := 0; i < actions; i++ {
		p.step(r)
	}
	p.compareSaved()
	if p.or.q.Elided() != 0 {
		t.Fatalf("seed %d: the oracle elided %d events", seed, p.or.q.Elided())
	}
	return p.elided + p.nap.q.Elided(), p.nap.obj.Stats().Ticks
}

// TestSleepScripts is the seeded differential. The floor it asserts on slept
// cycles guards against a harness in which the sleeper never sleeps.
func TestSleepScripts(t *testing.T) {
	var elided, ticks uint64
	for seed := uint64(1); seed <= 60; seed++ {
		e, n := runNapScript(t, seed, 250)
		elided += e
		ticks += n
	}
	t.Logf("%d of %d model cycles applied in closed form", elided, ticks)
	if elided*4 < ticks {
		t.Fatalf("only %d of %d model cycles were slept through: the scripts no longer exercise sleeping", elided, ticks)
	}
}

// heldMem is a zero-latency responder bound straight to a memory-side port:
// it keeps each request and answers it, from whatever event calls deliver,
// at that event's own tick.
type heldMem struct {
	p    *port.ResponsePort
	held []*port.Packet
}

func (m *heldMem) RecvTimingReq(pkt *port.Packet) bool {
	pkt.MakeResponse()
	if pkt.Cmd == port.ReadResp {
		pkt.AllocateData()
	}
	m.held = append(m.held, pkt)
	return true
}

func (m *heldMem) RecvRespRetry() {}

func (m *heldMem) deliver() {
	pkt := m.held[0]
	m.held = m.held[1:]
	if !m.p.SendTimingResp(pkt) {
		panic("rtlobject refused a memory response")
	}
}

// TestSameTickChildOrdersAgainstTheElidedTick is DESIGN.md §7.4's ordering
// trap, built: a model asleep waiting for read data, and on a model clock
// edge a response delivered by an event whose own key orders before the
// (elided) tick of that edge but which was scheduled, for that same tick, by
// an event ordered after it. Ticking per cycle, the tick ran before the
// parent, so the response is consumed one cycle later than the child's key
// suggests; the sleeper has to agree, in lockstep with the oracle, for this
// and for every other way two events can bracket the tick.
func TestSameTickChildOrdersAgainstTheElidedTick(t *testing.T) {
	lo, hi := straddle("dev.tick", "ev", "")
	const edge = 7 * napPeriod
	type rig struct {
		q   *sim.EventQueue
		obj *RTLObject
		m   *napModel
		mem *heldMem
	}
	build := func(oracle bool) *rig {
		r := &rig{q: sim.NewEventQueue(), mem: &heldMem{}}
		// One read on port 0, then wait for its data, then idle for good.
		r.m = &napModel{prog: []napStep{{kind: napBurst, a: 1}, {kind: napAwait}, {kind: napIdle}}, nextID: 1}
		core := sim.NewClockDomain("cpu", r.q, 2_000_000_000)
		IgnoreSleepersForTest(oracle)
		r.obj = New(Config{Name: "dev", ClockDivider: 2, MaxInflight: 3}, core, r.m)
		IgnoreSleepersForTest(false)
		r.mem.p = port.NewResponsePort("mem", r.mem)
		port.Bind(r.obj.MemPort(0), r.mem.p)
		r.obj.Start()
		return r
	}
	for _, tc := range []struct {
		name string
		arm  func(r *rig)
		// cycle is the model cycle that must consume the response: the
		// edge's own, or the one after when the tick of the edge ran first.
		cycle uint64
	}{
		{"early-ordered child of a late-ordered event", func(r *rig) {
			r.q.ScheduleOneShot(hi, edge, func() { r.q.ScheduleOneShot(lo, r.q.Now(), r.mem.deliver) })
		}, edge/napPeriod + 1},
		{"early-ordered event", func(r *rig) { r.q.ScheduleOneShot(lo, edge, r.mem.deliver) }, edge / napPeriod},
		{"late-ordered event", func(r *rig) { r.q.ScheduleOneShot(hi, edge, r.mem.deliver) }, edge/napPeriod + 1},
		{"late-ordered child of an early-ordered event", func(r *rig) {
			r.q.ScheduleOneShot(lo, edge, func() { r.q.ScheduleOneShot(hi, r.q.Now(), r.mem.deliver) })
		}, edge/napPeriod + 1},
		{"early-ordered child of an early-ordered event", func(r *rig) {
			r.q.ScheduleOneShot(lo, edge, func() { r.q.ScheduleOneShot(lo, r.q.Now(), r.mem.deliver) })
		}, edge / napPeriod},
	} {
		nap, or := build(false), build(true)
		for _, r := range []*rig{nap, or} {
			tc.arm(r)
			r.q.RunUntil(edge + 3*napPeriod + 1)
		}
		if !nap.obj.asleep || nap.q.Elided() == 0 {
			t.Fatalf("%s: the sleeper is not asleep (elided %d)", tc.name, nap.q.Elided())
		}
		a, b := nap.obj.Stats(), or.obj.Stats()
		if a != b || nap.m.c != or.m.c || nap.q.Dispatched() != or.q.Dispatched() || nap.obj.ticker.Cycle() != or.obj.ticker.Cycle() {
			t.Errorf("%s: machines diverge\n sleeper %+v %+v\n oracle  %+v %+v", tc.name, a, nap.m.c, b, or.m.c)
		}
		if or.m.lastRespCycle != tc.cycle {
			t.Fatalf("%s: the oracle consumed the response on cycle %d, the case was built for %d", tc.name, or.m.lastRespCycle, tc.cycle)
		}
		if nap.m.lastRespCycle != tc.cycle {
			t.Errorf("%s: response consumed on cycle %d, ticking per cycle consumes it on %d", tc.name, nap.m.lastRespCycle, tc.cycle)
		}
	}
}
