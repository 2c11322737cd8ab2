// Package cpu implements gem5rtl's timing core: a 3-wide issue, out-of-order
// style model of the paper's Table 1 cores (92-entry IQ and 192-entry ROB
// approximated by load/store queue and outstanding-access limits), executing
// RV-lite guest programs over a micro-kernel syscall layer. The model is
// timing-directed: architectural state updates at issue, reading and writing
// the system's mem.Storage directly, while loads/stores/ifetches issue
// payload-free timing packets into the cache hierarchy whose responses gate
// dependent issue via a register scoreboard. The core exposes the two event
// taps the PMU use case wires up: per-cycle committed-instruction counts and
// L1D misses (the latter via cache.Cache.OnMiss).
package cpu

import (
	"fmt"
	"io"

	"gem5rtl/internal/isa"
	"gem5rtl/internal/mem"
	"gem5rtl/internal/obs"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

// Config parameterises a core.
type Config struct {
	Name        string
	ID          int
	IssueWidth  int // Table 1: 3-wide issue/retire
	CommitWidth int // PMU event lines: up to 4 commits/cycle
	ROBSize     int // 192
	LDQ         int // 48
	STQ         int // 48
	// BranchPenalty is the fetch-redirect cost of taken control flow.
	BranchPenalty uint64
	// Entry and StackTop locate the program image and stack.
	Entry    uint64
	StackTop uint64
}

// DefaultConfig returns the Table 1 core parameters.
func DefaultConfig(id int) Config {
	return Config{
		Name:          fmt.Sprintf("cpu%d", id),
		ID:            id,
		IssueWidth:    3,
		CommitWidth:   4,
		ROBSize:       192,
		LDQ:           48,
		STQ:           48,
		BranchPenalty: 1,
		// Each core gets a private 64 KiB program region so multi-programmed
		// workloads do not collide.
		Entry:    0x10000 + uint64(id)*0x10000,
		StackTop: 0x200000 + uint64(id)*0x40000,
	}
}

// Stats aggregates core activity.
type Stats struct {
	Cycles      uint64
	Committed   uint64
	Loads       uint64
	Stores      uint64
	Branches    uint64
	TakenBr     uint64
	LoadStalls  uint64
	FetchStalls uint64
	QueueStalls uint64
	SleepCycles uint64
	Syscalls    uint64
}

// IPC returns committed instructions per awake cycle. Cycles counts only
// the cycles the core ticked, so a sleep, which SleepCycles counts, is
// already outside it.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// Core is one timing core.
type Core struct {
	cfg    Config
	dom    *sim.ClockDomain
	q      *sim.EventQueue
	ticker *sim.Ticker
	// store is the system's backing store, the one place a simulated byte
	// lives: the caches model timing only.
	store *mem.Storage

	iPort *port.RequestPort
	dPort *port.RequestPort

	regs [32]uint64
	pc   uint64

	// Scoreboard: registers awaiting an outstanding load.
	pendingReg [32]bool
	outLoads   int
	outStores  int

	fetchBlock       uint64
	fetchOutstanding int

	stallCycles uint64
	exited      bool
	exitCode    int64
	sleeping    bool
	// wakeEv ends a sleep syscall. It is a persistent, component-owned event
	// (not an ad-hoc closure) so its pending state can be checkpointed.
	wakeEv *sim.Event

	decoded map[uint64]isa.Inst

	// pool recycles every timing packet the core sends (ifetches, load
	// touches and stores); tags recycles their loadState tags. A store's
	// packet can be pooled because the data port binds only to an L1D,
	// which answers every write itself (it is write-allocate), so no
	// component downstream holds the packet once its response arrives here.
	pool port.PacketPool
	tags sim.Freelist[loadState]
	// buf stages the bytes of one load, store or instruction read.
	buf [8]byte

	// OnCommit fires every active cycle with the number of instructions
	// committed that cycle — the PMU's commit event lines.
	OnCommit func(n int)
	// OnExit fires when the program executes the exit syscall.
	OnExit func(code int64)
	// Out receives print syscall output.
	Out io.Writer

	// trace is the CPU debug-flag logger (nil = off; see AttachTracer).
	trace *obs.Logger

	stats Stats
}

// loadState tags in-flight packets for response handling.
type loadState struct {
	isLoad  bool
	isFetch bool
	rd      uint8
}

// getLoadState recycles a tag from the freelist. Tags are returned by
// putLoadState once popped from a response or a refused send.
func (c *Core) getLoadState(isLoad, isFetch bool, rd uint8) *loadState {
	st := c.tags.Get()
	st.isLoad, st.isFetch, st.rd = isLoad, isFetch, rd
	return st
}

func (c *Core) putLoadState(st *loadState) { c.tags.Put(st) }

// New creates a core on the given clock domain whose loads, stores and
// instruction reads go to store. Bind IPort/DPort before Start.
func New(cfg Config, dom *sim.ClockDomain, store *mem.Storage) *Core {
	c := &Core{
		cfg:        cfg,
		dom:        dom,
		q:          dom.Queue(),
		store:      store,
		pc:         cfg.Entry,
		decoded:    map[uint64]isa.Inst{},
		fetchBlock: ^uint64(0),
	}
	c.regs[2] = cfg.StackTop
	c.pool.ShareIDs(c.q)
	c.iPort = port.NewRequestPort(cfg.Name+".icache", (*coreIFace)(c))
	c.dPort = port.NewRequestPort(cfg.Name+".dcache", (*coreDFace)(c))
	c.ticker = sim.NewTicker(cfg.Name+".tick", dom, sim.PriCPU, c.cycle)
	c.ticker.SetOwner(c.q.Owner(cfg.Name, "tick"))
	c.wakeEv = sim.NewEvent(cfg.Name+".wake", c.wake).SetOwner(c.q.Owner(cfg.Name, "wake"))
	return c
}

// wake ends a sleep syscall and restarts the clock.
func (c *Core) wake() {
	if c.trace.On() {
		c.trace.Logf("wake pc=%#x", c.pc)
	}
	c.sleeping = false
	if !c.exited {
		c.ticker.StartAt(c.dom.ClockEdge(0))
	}
}

// IPort returns the instruction-side request port (bind to L1I).
func (c *Core) IPort() *port.RequestPort { return c.iPort }

// DPort returns the data-side request port (bind to L1D).
func (c *Core) DPort() *port.RequestPort { return c.dPort }

// Stats returns a snapshot of counters.
func (c *Core) Stats() Stats { return c.stats }

// Exited reports whether the program has exited, and its code.
func (c *Core) Exited() (bool, int64) { return c.exited, c.exitCode }

// PC returns the current program counter.
func (c *Core) PC() uint64 { return c.pc }

// Reg returns architectural register r.
func (c *Core) Reg(r int) uint64 { return c.regs[r] }

// LoadProgram writes a program image into the store and resets the PC.
func (c *Core) LoadProgram(image []byte) {
	c.store.Write(c.cfg.Entry, image)
	c.pc = c.cfg.Entry
	c.decoded = map[uint64]isa.Inst{}
}

// Start begins executing at the next clock edge.
func (c *Core) Start() { c.ticker.Start() }

// Stop halts the core's clock.
func (c *Core) Stop() { c.ticker.Stop() }

// cycle models one core clock.
func (c *Core) cycle(uint64) bool {
	if c.exited {
		return false
	}
	c.stats.Cycles++
	if c.stallCycles > 0 {
		c.stallCycles--
		c.commitTap(0)
		return true
	}
	if c.fetchOutstanding >= 2 {
		// Fetch buffer full: both outstanding block fetches still in flight.
		c.stats.FetchStalls++
		c.commitTap(0)
		return true
	}
	committed := 0
	for committed < c.cfg.IssueWidth {
		if !c.step(&committed) {
			break
		}
	}
	c.stats.Committed += uint64(committed)
	if committed > 0 && c.trace.On() {
		c.trace.Logf("cycle %d committed %d pc=%#x", c.dom.CurCycle(), committed, c.pc)
	}
	c.commitTap(committed)
	return !c.exited && !c.sleeping
}

func (c *Core) commitTap(n int) {
	if c.OnCommit != nil {
		c.OnCommit(n)
	}
}

// step attempts to issue one instruction; returns false to end the cycle.
func (c *Core) step(committed *int) bool {
	// Instruction fetch: a new 64-byte block sends a timing touch to the
	// L1I. Fetch is pipelined (up to two blocks in flight); execution only
	// stalls when the fetch buffer is full (checked in cycle), modelling an
	// ahead-of-execute fetch engine.
	blk := c.pc &^ 63
	if blk != c.fetchBlock {
		c.fetchBlock = blk
		fetch := c.pool.GetRead(blk, 64)
		fetch.PushSenderState(c.getLoadState(false, true, 0))
		fetch.RequestorID = c.cfg.ID
		if c.iPort.SendTimingReq(fetch) {
			c.fetchOutstanding++
		} else {
			// Refused (L1I MSHR-full): proceed without the touch; rare.
			c.putLoadState(fetch.PopSenderState().(*loadState))
			fetch.Release()
		}
	}
	in, ok := c.decoded[c.pc]
	if !ok {
		c.store.Read(c.pc, c.buf[:isa.InstBytes])
		var err error
		in, err = isa.Decode(c.buf[:isa.InstBytes])
		if err != nil {
			panic(fmt.Sprintf("%s: pc=%#x: %v", c.cfg.Name, c.pc, err))
		}
		c.decoded[c.pc] = in
	}
	// Scoreboard: stall if a source (or, for WAW, the destination) is
	// awaiting a load.
	if c.pendingReg[in.Rs1] || c.pendingReg[in.Rs2] ||
		(in.Rd != 0 && c.pendingReg[in.Rd]) {
		c.stats.LoadStalls++
		return false
	}
	if c.outLoads+c.outStores >= c.cfg.ROBSize {
		c.stats.QueueStalls++
		return false
	}
	nextPC := c.pc + isa.InstBytes
	switch {
	case in.Op == isa.OpNop:
	case in.Op == isa.OpEcall:
		if !c.syscall() {
			// exit or sleep: consume the instruction then end the cycle.
			c.pc = nextPC
			*committed++
			return false
		}
	case in.Op.IsLoad():
		if c.outLoads >= c.cfg.LDQ {
			c.stats.QueueStalls++
			return false
		}
		addr := c.regs[in.Rs1] + uint64(int64(in.Imm))
		n := in.Op.MemBytes()
		// Architectural value now, from the store...
		c.store.Read(addr, c.buf[:n])
		var v uint64
		for i := n - 1; i >= 0; i-- {
			v = v<<8 | uint64(c.buf[i])
		}
		c.setReg(in.Rd, v)
		// ...timing packet to gate consumers.
		t := c.pool.GetRead(addr, n)
		t.RequestorID = c.cfg.ID
		t.PushSenderState(c.getLoadState(true, false, in.Rd))
		if !c.dPort.SendTimingReq(t) {
			// L1D refused (MSHR-full): retry next cycle, undo.
			c.putLoadState(t.PopSenderState().(*loadState))
			t.Release()
			c.stats.QueueStalls++
			return false
		}
		if in.Rd != 0 {
			c.pendingReg[in.Rd] = true
		}
		c.outLoads++
		c.stats.Loads++
	case in.Op.IsStore():
		if c.outStores >= c.cfg.STQ {
			c.stats.QueueStalls++
			return false
		}
		addr := c.regs[in.Rs1] + uint64(int64(in.Imm))
		n := in.Op.MemBytes()
		// The bytes go to the store now; the timing packet carries none.
		v := c.regs[in.Rs2]
		for i := 0; i < n; i++ {
			c.buf[i] = byte(v >> (8 * i))
		}
		c.store.Write(addr, c.buf[:n])
		t := c.pool.Get(port.WriteReq, addr, n)
		t.RequestorID = c.cfg.ID
		t.PushSenderState(c.getLoadState(false, false, 0))
		if !c.dPort.SendTimingReq(t) {
			c.putLoadState(t.PopSenderState().(*loadState))
			t.Release()
			c.stats.QueueStalls++
			return false
		}
		c.outStores++
		c.stats.Stores++
	case in.Op.IsBranch():
		c.stats.Branches++
		if c.branchTaken(in) {
			c.stats.TakenBr++
			nextPC = c.pc + uint64(int64(in.Imm))
			c.stallCycles += c.cfg.BranchPenalty
			c.pc = nextPC
			*committed++
			return false
		}
	case in.Op == isa.OpJal:
		c.setReg(in.Rd, c.pc+isa.InstBytes)
		nextPC = c.pc + uint64(int64(in.Imm))
		c.stallCycles += c.cfg.BranchPenalty
		c.pc = nextPC
		*committed++
		return false
	case in.Op == isa.OpJalr:
		target := c.regs[in.Rs1] + uint64(int64(in.Imm))
		c.setReg(in.Rd, c.pc+isa.InstBytes)
		nextPC = target
		c.stallCycles += c.cfg.BranchPenalty
		c.pc = nextPC
		*committed++
		return false
	default:
		c.alu(in)
	}
	c.pc = nextPC
	*committed++
	return true
}

func (c *Core) setReg(r uint8, v uint64) {
	if r != 0 {
		c.regs[r] = v
	}
}

func (c *Core) branchTaken(in isa.Inst) bool {
	a, b := c.regs[in.Rs1], c.regs[in.Rs2]
	switch in.Op {
	case isa.OpBeq:
		return a == b
	case isa.OpBne:
		return a != b
	case isa.OpBlt:
		return int64(a) < int64(b)
	case isa.OpBge:
		return int64(a) >= int64(b)
	case isa.OpBltu:
		return a < b
	case isa.OpBgeu:
		return a >= b
	}
	return false
}

func (c *Core) alu(in isa.Inst) {
	a := c.regs[in.Rs1]
	b := c.regs[in.Rs2]
	imm := uint64(int64(in.Imm))
	var v uint64
	switch in.Op {
	case isa.OpAdd:
		v = a + b
	case isa.OpSub:
		v = a - b
	case isa.OpMul:
		v = a * b
	case isa.OpDiv:
		if b == 0 {
			v = ^uint64(0)
		} else {
			v = uint64(int64(a) / int64(b))
		}
	case isa.OpRem:
		if b == 0 {
			v = a
		} else {
			v = uint64(int64(a) % int64(b))
		}
	case isa.OpAnd:
		v = a & b
	case isa.OpOr:
		v = a | b
	case isa.OpXor:
		v = a ^ b
	case isa.OpSll:
		v = a << (b & 63)
	case isa.OpSrl:
		v = a >> (b & 63)
	case isa.OpSra:
		v = uint64(int64(a) >> (b & 63))
	case isa.OpSlt:
		if int64(a) < int64(b) {
			v = 1
		}
	case isa.OpSltu:
		if a < b {
			v = 1
		}
	case isa.OpAddi:
		v = a + imm
	case isa.OpAndi:
		v = a & imm
	case isa.OpOri:
		v = a | imm
	case isa.OpXori:
		v = a ^ imm
	case isa.OpSlli:
		v = a << (imm & 63)
	case isa.OpSrli:
		v = a >> (imm & 63)
	case isa.OpSrai:
		v = uint64(int64(a) >> (imm & 63))
	case isa.OpSlti:
		if int64(a) < int64(imm) {
			v = 1
		}
	case isa.OpLui:
		v = imm << 12
	default:
		panic("cpu: unhandled ALU op " + in.Op.String())
	}
	c.setReg(in.Rd, v)
}

// syscall executes an ecall; returns false if the core should stop issuing
// this cycle (sleep/exit).
func (c *Core) syscall() bool {
	c.stats.Syscalls++
	num := c.regs[17] // a7
	a0 := c.regs[10]
	switch num {
	case isa.SysExit:
		c.exited = true
		c.exitCode = int64(a0)
		if c.trace.On() {
			c.trace.Logf("exit code=%d after %d insts", c.exitCode, c.stats.Committed)
		}
		if c.OnExit != nil {
			c.OnExit(c.exitCode)
		}
		return false
	case isa.SysSleepUs:
		dur := sim.Tick(a0) * sim.Microsecond
		if c.trace.On() {
			c.trace.Logf("sleep %dus", a0)
		}
		c.sleeping = true
		c.stats.SleepCycles += c.dom.TicksToCycles(dur)
		c.q.Schedule(c.wakeEv, c.q.Now()+dur)
		return false
	case isa.SysPrintInt:
		if c.Out != nil {
			fmt.Fprintf(c.Out, "%d\n", int64(a0))
		}
	case isa.SysPrintChr:
		if c.Out != nil {
			fmt.Fprintf(c.Out, "%c", rune(a0))
		}
	case isa.SysCycles:
		c.regs[10] = c.dom.CurCycle()
	default:
		panic(fmt.Sprintf("%s: unknown syscall %d", c.cfg.Name, num))
	}
	return true
}

// coreIFace handles instruction-side responses.
type coreIFace Core

func (ci *coreIFace) RecvTimingResp(pkt *port.Packet) bool {
	c := (*Core)(ci)
	st := pkt.PopSenderState().(*loadState)
	if !st.isFetch {
		panic("cpu: non-fetch response on icache port")
	}
	c.fetchOutstanding--
	c.putLoadState(st)
	pkt.Release()
	return true
}

func (ci *coreIFace) RecvReqRetry() {}

// coreDFace handles data-side responses.
type coreDFace Core

func (cd *coreDFace) RecvTimingResp(pkt *port.Packet) bool {
	c := (*Core)(cd)
	st := pkt.PopSenderState().(*loadState)
	if st.isLoad {
		c.outLoads--
		if st.rd != 0 {
			c.pendingReg[st.rd] = false
		}
	} else {
		c.outStores--
	}
	c.putLoadState(st)
	// Every timing packet is pool-owned by this core (a restored one is
	// unpooled, and Release leaves it be).
	pkt.Release()
	return true
}

func (cd *coreDFace) RecvReqRetry() {}
