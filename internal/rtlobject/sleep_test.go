package rtlobject

import (
	"fmt"
	"hash/fnv"
	"testing"

	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/conform"
	"gem5rtl/internal/mem"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

// The sleep differential drives two rigs through one seeded script
// (conform.Script): one whose RTLObject sleeps between its model's inputs,
// and the oracle — the same code, built with Config.PerCycle set, ticking
// the same model on every clock edge. After every action the two must be
// indistinguishable: same bridge Stats, ticker cycle, model counters (which
// fold in the cycle each input was consumed on), dispatch count and, at save
// points, the same checkpoint bytes, from which both continue restored.
// Nothing in the oracle knows what sleeping is, so whatever the sleeper
// credits, holds or wakes for has to come out where ticking would have put
// it.

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

func (m *napModel) Checkpoint(s *ckpt.Stream) error {
	s.Section("nap")
	readsOut, writesOut := m.readsOut+1<<20, m.writesOut+1<<20
	for _, p := range []*int{&m.pc, &m.reads, &m.writes, &m.computeLeft, &readsOut, &writesOut} {
		s.Len(p)
	}
	m.readsOut, m.writesOut = readsOut-1<<20, writesOut-1<<20
	s.U64(&m.nextID)
	s.Bool(&m.irq)
	for _, p := range []*uint64{&m.c.Cycles, &m.c.Active, &m.c.Busy, &m.c.Stall, &m.c.Idle, &m.c.Digest} {
		s.U64(p)
	}
	return s.Err()
}

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
	rng     *conform.RNG
	due     []scriptResp // sorted by (when, insertion)
}

type scriptResp struct {
	when sim.Tick
	pkt  *port.Packet
}

func newScriptMem(name string, q *sim.EventQueue, period sim.Tick, seed uint64) *scriptMem {
	m := &scriptMem{q: q, period: period, rng: conform.NewRNG(seed)}
	m.p = port.NewResponsePort(name, m)
	m.drainEv = sim.NewEvent(name+".drain", m.drain)
	m.retryEv = sim.NewEvent(name+".retry", m.p.SendRetryReq)
	return m
}

// delay draws a latency: a quarter zero, a quarter landing exactly on a model
// edge, the rest up to three cycles and a bit.
func (m *scriptMem) delay() sim.Tick {
	now := m.q.Now()
	switch m.rng.Intn(4) {
	case 0:
		return 0
	case 1:
		edge := (now/m.period + 1 + sim.Tick(m.rng.Intn(3))) * m.period
		return edge - now
	}
	return sim.Tick(1 + m.rng.Intn(3*int(m.period)+17))
}

func (m *scriptMem) RecvTimingReq(pkt *port.Packet) bool {
	if m.rng.Intn(6) == 0 && !m.retryEv.Scheduled() {
		m.q.Schedule(m.retryEv, m.q.Now()+m.delay())
		return false
	}
	pkt.MakeResponse()
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

func (m *scriptMem) Checkpoint(s *ckpt.Stream) error {
	s.Section("scriptmem")
	m.rng.Checkpoint(s)
	m.q.CheckpointEvent(s, m.drainEv)
	m.q.CheckpointEvent(s, m.retryEv)
	ckpt.Slice(s, &m.due, func(s *ckpt.Stream, e *scriptResp) {
		s.U64((*uint64)(&e.when))
		port.CheckpointPacket(s, &e.pkt)
	})
	return m.p.Checkpoint(s)
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
	pkt := port.NewReadPacket(0x40+h.sent%4*4, 4)
	pkt.ID = 1<<40 + h.sent
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

const napPeriod = 1000 // model clock: 2 GHz core, divider 2

// napRig is one machine of the sleep differential (a conform.Machine):
// oracle selects the per-cycle one.
type napRig struct {
	t       *testing.T
	seed    uint64
	oracle  bool
	q       *sim.EventQueue
	obj     *RTLObject
	m       *napModel
	mems    [NumMemPorts]*scriptMem
	host    *napHost
	running bool
	restore bool   // the last action was op 14, which continues restored
	elided  uint64 // by the sleepers this rig replaced through restores
}

func napProgram(seed uint64) []napStep {
	r := conform.NewRNG(seed ^ 0x6e6170)
	prog := []napStep{{kind: napBurst, a: 5, b: 2}}
	for len(prog) < 24 {
		switch r.Intn(6) {
		case 0, 1:
			prog = append(prog, napStep{kind: napBurst, a: r.Intn(12), b: r.Intn(6)})
		case 2:
			prog = append(prog, napStep{kind: napAwait})
		case 3:
			prog = append(prog, napStep{kind: napCompute, a: 1 + r.Intn(150)})
		case 4:
			prog = append(prog, napStep{kind: napDrain})
		case 5:
			prog = append(prog, napStep{kind: napIdle})
		}
	}
	return prog
}

// newNapRig builds one machine. The two memories' response events rank on
// either side of the object's tick event, so a response landing on a model
// edge is seen before the tick of that edge from one of them and after it
// from the other.
func newNapRig(t *testing.T, seed uint64, oracle bool) *napRig {
	r := &napRig{t: t, seed: seed, oracle: oracle, q: sim.NewEventQueue(), m: &napModel{prog: napProgram(seed)}}
	core := sim.NewClockDomain("cpu", r.q, 2_000_000_000)
	r.obj = New(Config{Name: "dev", ClockDivider: 2, MaxInflight: 3, PerCycle: oracle}, core, mem.NewStorage(), r.m)
	r.obj.SetPacketIDSpace(1)
	lo, hi := conform.Straddle(rank, "dev.tick", "mem", ".drain")
	for i, name := range []string{lo, hi} {
		r.mems[i] = newScriptMem(name, r.q, napPeriod, seed+uint64(i))
		port.Bind(r.obj.MemPort(i), r.mems[i].p)
	}
	r.host = &napHost{}
	r.host.p = port.NewRequestPort("host", r.host)
	port.Bind(r.host.p, r.obj.CPUPort(0))
	return r
}

func (r *napRig) Save(t testing.TB) []byte { return conform.Save(t, r.q, r.obj, r.mems[0], r.mems[1]) }

// Restore continues in a fresh machine restored from the checkpoint, with
// the host's counts carried over, after op 14. After ops 12 and 13 the
// machine that saved runs on: a save wakes a sleeper, and the woken sleeper
// must keep matching in its own queue.
func (r *napRig) Restore(t testing.TB, data []byte) conform.Machine[napAction, napView] {
	if !r.restore {
		return nil
	}
	n := newNapRig(r.t, r.seed, r.oracle)
	conform.Restore(t, data, n.q, n.obj, n.mems[0], n.mems[1])
	n.host.got, n.host.sent, n.running = r.host.got, r.host.sent, r.running
	n.elided = r.elided + r.q.Elided()
	return n
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

// Digest fails the test as soon as the model sees its contract broken.
func (r *napRig) Digest() napView {
	st := r.obj.Stats() // settles: the counters below are read after it
	if r.m.fault != "" {
		r.t.Fatalf("seed %d, oracle %v: model contract broken: %s\nlast Tick cycle %d (%d inputs), last Advance(%d), asleep=%v from %d",
			r.seed, r.oracle, r.m.fault, r.m.lastTickCycle, r.m.lastTickInputs, r.m.lastAdvanceCount, r.obj.asleep, r.obj.sleepFrom)
	}
	return napView{
		Now: r.q.Now(), Stats: st, Cycle: r.obj.ticker.Cycle(), Model: r.m.c,
		Dispatched: r.q.Dispatched(), HostGot: r.host.got,
		Inflight: r.obj.InflightCount(), Queued: r.obj.QueuedCount(),
	}
}

// napAction is one drawn step of a script: the op in its low four bits, and
// above them the run length of an op that runs.
type napAction uint64

func (a napAction) op() int { return int(a % 16) }

// d is the action's run length, in [1, n].
func (a napAction) d(n int) sim.Tick { return sim.Tick(1 + uint64(a>>4)%uint64(n)) }

// isNapSave: ops 12 to 14 save; 14 alone continues in restored machines.
func isNapSave(a napAction) bool { return a.op() >= 12 && a.op() <= 14 }

// Apply performs one action.
func (r *napRig) Apply(a napAction) {
	r.restore = a.op() == 14
	now := r.q.Now()
	nextEdge := (now/napPeriod + 1) * napPeriod
	switch a.op() {
	case 0:
		r.q.RunUntil(nextEdge)
	case 1:
		r.q.RunUntil(nextEdge - 1)
	case 2, 3, 4:
		r.q.RunUntil(now + a.d(20000))
	case 5:
		r.q.RunUntil(now + a.d(400)*napPeriod)
	case 6, 7:
		// Two runs with nothing settled between them.
		r.q.RunUntil(now + a.d(3000))
		r.q.RunUntil(((now+a.d(3000))/napPeriod + 1) * napPeriod)
	case 8:
		r.host.send()
	case 9:
		// The ordering trap: at a model edge, an event ordered after the
		// tick schedules, for that same tick, one ordered before it, and the
		// child delivers the input.
		lo, hi := conform.Straddle(rank, "dev.tick", "trap", "")
		r.q.ScheduleOneShot(hi, nextEdge, func() {
			r.q.ScheduleOneShot(lo, r.q.Now(), r.host.send)
		})
		r.q.RunUntil(nextEdge)
	case 10:
		r.obj.Wake()
		r.m.poke()
	case 11:
		// Straight after a run, with the cycles it slept through still owed.
		r.q.RunUntil(now + a.d(7000))
		if r.running {
			r.obj.Stop()
		} else {
			r.obj.Start()
		}
		r.running = !r.running
	}
}

func runNapScript(t *testing.T, seed uint64, actions int) (elided, ticks uint64) {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Logf("seed %d", seed)
		}
	}()
	nap, or := newNapRig(t, seed, false), newNapRig(t, seed, true)
	for _, r := range []*napRig{nap, or} {
		r.obj.Start()
		r.running = true
	}
	r := conform.NewRNG(seed * 0x2545f4914f6cdd1d)
	script := make([]napAction, actions)
	for i := range script {
		script[i] = napAction(r.Uint64())
	}
	res := conform.Script[napAction, napView](t, nap, or, script, isNapSave)
	nap, or = res.Subject.(*napRig), res.Oracle.(*napRig)
	if or.elided+or.q.Elided() != 0 {
		t.Fatalf("seed %d: the oracle elided %d events", seed, or.elided+or.q.Elided())
	}
	return nap.elided + nap.q.Elided(), nap.obj.Stats().Ticks
}

// TestSleepScripts is the seeded differential: 60 scripts of 250 actions,
// the sleeping machine against the per-cycle one, compared after every action
// (conform.Script). The floor it asserts on slept cycles guards against a
// harness in which the sleeper never sleeps.
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
	lo, hi := conform.Straddle(rank, "dev.tick", "ev", "")
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
		r.obj = New(Config{Name: "dev", ClockDivider: 2, MaxInflight: 3, PerCycle: oracle}, core, mem.NewStorage(), r.m)
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
