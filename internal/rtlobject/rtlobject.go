// Package rtlobject implements the paper's central contribution: the generic
// RTLObject that embeds an RTL model (behind a shared-library-style
// tick/reset Wrapper) into the simulated SoC, bridging the model's interfaces
// to gem5-style timing ports and packets.
//
// As in the paper (§3.4), the RTLObject provides:
//
//   - four predefined timing ports — two CPU-side response ports, through
//     which SoC agents (cores, DMA) reach the RTL block, and two memory-side
//     request ports, through which the RTL block reaches caches or DRAM;
//   - a tick event driven at a configurable ratio of the core clock, fired on
//     every model clock edge unless the wrapper can say its next cycles only
//     move counters (the optional Sleeper capability): then the edges between
//     two inputs are applied arithmetically instead of dispatched;
//   - optional TLB hookup for address translation of the model's memory
//     requests;
//   - Input/Output structs exchanged with the wrapper on every model tick,
//     mirroring the paper's void*-struct protocol; and
//   - an interrupt line delivered to a registered callback.
//
// The in-flight request limit that drives the paper's NVDLA design-space
// exploration is enforced here: memory requests beyond MaxInflight wait in
// an internal queue until responses retire earlier ones.
package rtlobject

import (
	"fmt"
	"slices"

	"gem5rtl/internal/mem"
	"gem5rtl/internal/obs"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

// NumCPUPorts and NumMemPorts are the predefined port counts of §3.4.
const (
	NumCPUPorts = 2
	NumMemPorts = 2
)

// MemRequest is one memory access the RTL model asks the framework to issue
// on its behalf through a memory-side port.
type MemRequest struct {
	// ID is chosen by the wrapper and echoed back on the response.
	ID uint64
	// Addr is the model-visible address (virtual if a TLB is attached).
	Addr uint64
	// Size in bytes.
	Size int
	// Write selects store vs load; Data holds store payload.
	Write bool
	Data  []byte
	// Port selects which memory-side port to use (0..NumMemPorts-1).
	Port int
}

// MemResponse returns load data (or a store ack) to the model. Data is valid
// during the Tick call that delivers it, like the Input slices themselves: the
// RTLObject reads response payloads from the store into one buffer it reuses
// every tick, so a wrapper that keeps a payload must copy the bytes.
type MemResponse struct {
	ID    uint64
	Write bool
	Data  []byte
	// Latency is the measured round-trip in ticks, for model-side profiling.
	Latency sim.Tick
}

// CPURequest is a request that arrived on a CPU-side port (e.g. a core
// programming the PMU's AXI registers).
type CPURequest struct {
	ID    uint64
	Port  int
	Addr  uint64
	Size  int
	Write bool
	Data  []byte
}

// CPUResponse answers a CPURequest with the same ID.
type CPUResponse struct {
	ID   uint64
	Data []byte
}

// Input is the struct passed to Wrapper.Tick each model clock cycle,
// mirroring the paper's input struct.
type Input struct {
	// Cycle counts wrapper ticks since reset.
	Cycle uint64
	// MemResponses completed since the previous tick, in completion order.
	MemResponses []MemResponse
	// CPURequests received since the previous tick, in arrival order.
	CPURequests []CPURequest
	// User carries model-specific payload (e.g. PMU event bits).
	User any
}

// Output is returned by Wrapper.Tick, mirroring the paper's output struct.
type Output struct {
	// MemRequests for the framework to issue (subject to MaxInflight).
	MemRequests []MemRequest
	// CPUResponses completing earlier CPURequests.
	CPUResponses []CPUResponse
	// Interrupt level; a rising edge triggers the IRQ callback.
	Interrupt bool
	// User carries model-specific payload.
	User any
}

// Wrapper is the shared-library interface of §3.3: every RTL model is
// wrapped behind tick and reset entry points.
type Wrapper interface {
	// Tick advances the model one clock and exchanges interface data.
	Tick(in *Input) *Output
	// Reset restores the model's power-on state.
	Reset()
	// Name identifies the model in stats and errors.
	Name() string
}

// InputKind is a set of the memory-response kinds an RTLObject hands to its
// wrapper. A Sleeper names with it the kinds that must wake it.
type InputKind uint8

// The memory-response kinds. CPU-side requests are not in the set: they
// always wake a sleeping model.
const (
	ReadData InputKind = 1 << iota // a load's data
	WriteAck                       // a store's acknowledgement
)

// Forever is the quiet horizon of a model that only an input can move.
const Forever = ^uint64(0)

// Sleeper is an optional Wrapper capability: a model that can tell when its
// coming cycles have a closed form. After a real Tick the RTLObject asks
// Quiet; if the answer is not zero it stops scheduling its tick event for
// that many edges (for good, on Forever) and applies the edges that go by
// with Advance when the next input, reader or checkpoint needs them — so
// that at every instant the model and the object are in the state ticking
// every edge would have left them in, while the queue dispatches only the
// ticks that issue or retire work. A cycle-level model usually knows its
// closed form outright (the NVDLA); a compiled netlist has one only in
// stretches, which the RTL engine finds in the compiled code (rtl.Model.Quiet,
// behind the PMU's wrapper).
//
// The contract, with "quiet cycle" meaning a Tick whose Input carries no CPU
// request and no memory response of a kind in wake:
//
//   - Quiet returns (k, wake): each of the next k cycles, if quiet, returns
//     no memory request and no CPU response, holds the interrupt level of
//     the Tick before it, and changes nothing but state Advance reproduces.
//     Responses of kinds outside wake may arrive during those cycles without
//     shortening k. k is Forever when only an input can end the stretch.
//   - Advance(n, held) has exactly the effect of n consecutive quiet Ticks,
//     1 <= n <= k, the first of which was handed held (responses of kinds
//     outside wake, in arrival order; valid during the call like an Input's).
//   - Nothing else may change the model while it is quiet, with one
//     exception: an input the wrapper takes besides the Input struct (the
//     PMU's event taps) may reach it while it sleeps if its k already holds
//     whatever that input does, and the wrapper absorbs it into the cycle
//     RTLObject.Owed names, for Advance to apply. Any other back door into
//     the model (a register poke, a fault injection) calls RTLObject.Wake
//     first.
type Sleeper interface {
	Quiet() (cycles uint64, wake InputKind)
	Advance(cycles uint64, held []MemResponse)
}

// Config parameterises an RTLObject.
type Config struct {
	Name string
	// ClockDivider slows the RTL model relative to the core clock domain
	// (the paper's frequency-ratio parameter). 1 = same frequency; 2 = the
	// PMU/NVDLA case (1 GHz under 2 GHz cores).
	ClockDivider uint64
	// MaxInflight caps outstanding memory-side requests (0 = unlimited).
	MaxInflight int
	// TLB, when non-nil, translates model addresses before issue.
	TLB TLB
	// PerCycle ticks the wrapper on every clock edge even when it is a
	// Sleeper: the per-cycle machine the differential tests hold the
	// sleeping one to.
	PerCycle bool
}

// Stats aggregates RTLObject activity counters.
type Stats struct {
	Ticks         uint64
	MemReads      uint64
	MemWrites     uint64
	MemReadBytes  uint64
	MemWriteBytes uint64
	CPURequests   uint64
	Interrupts    uint64
	// StallCycles counts every attempt to issue that found requests queued
	// and MaxInflight already reached: once per model cycle spent in that
	// state, and once more for each response or retry that retires or
	// unblocks something and still leaves the cap reached. It is therefore
	// an upper bound on, not a count of, the cycles lost to the cap.
	StallCycles uint64
	TotalMemLat sim.Tick
	RetiredMem  uint64
}

// RTLObject bridges one Wrapper into the SoC.
type RTLObject struct {
	cfg     Config
	q       *sim.EventQueue
	dom     *sim.ClockDomain
	store   *mem.Storage
	wrapper Wrapper
	ticker  *sim.Ticker

	cpuPorts [NumCPUPorts]*port.ResponsePort
	memPorts [NumMemPorts]*port.RequestPort
	respQs   [NumCPUPorts]*port.RespQueue

	// Wrapper exchange state. pendingCPU/pendingResp backing arrays are
	// reused across ticks (reset to length zero after each exchange); the
	// Input handed to the wrapper is therefore only valid during the Tick
	// call, matching the paper's void*-struct protocol. Wrappers that keep
	// entries beyond the call must copy the elements (element copies stay
	// valid — only the backing array is recycled) and, of a MemResponse, the
	// payload bytes: respData holds the payloads of pendingResp back to back
	// and is rewound once Tick has returned.
	pendingCPU  []CPURequest
	pendingResp []MemResponse
	respData    []byte
	in          Input                   // reused Input handed to Wrapper.Tick
	cpuPkts     map[uint64]*port.Packet // CPU request ID -> original packet
	cpuPktPort  map[uint64]int
	nextCPUID   uint64

	// Memory-side outstanding and overflow queue. inflight lists the issued
	// transactions in no particular order (each knows its slot); the record
	// itself rides on the packet as sender state, so a response finds it
	// without a lookup. sendQ drains from sendHead instead of re-slicing so
	// the backing array is reused; txns recycles memTxn records and pool the
	// DMA packets, which carry no payload: the bytes move between the
	// wrapper and the store.
	inflight []*memTxn
	sendQ    []MemRequest
	sendHead int
	txns     sim.Freelist[memTxn]
	pool     port.PacketPool
	blocked  [NumMemPorts]bool

	irqLevel bool
	irqFn    func(level bool)

	// Closed-form cycles. sleeper is the wrapper's Sleeper capability, nil
	// when it has none (or the object is PerCycle). While asleep the tick
	// event is parked at the end of the quiet horizon (nowhere, on Forever)
	// and the object owes every model edge from sleepFrom that the dispatch
	// order has passed; settle pays them. Responses of kinds outside wakeOn
	// wait in pendingResp, as they do between any two ticks, for the first
	// cycle settle pays after them.
	sleeper   Sleeper
	asleep    bool
	sleepFrom sim.Tick
	wakeOn    InputKind

	// trace is the RTL debug-flag logger (nil = off; see AttachTracer).
	trace *obs.Logger

	stats Stats
}

// memTxn is one issued memory request, without a write's bytes, which are
// in the store from the moment it issues. It is also the sender state of the
// request's packet; a checkpoint writes it as the bare request ID (see
// ckpt.go), which is what a restored packet carries instead.
type memTxn struct {
	req    MemRequest
	issued sim.Tick
	slot   int // index in RTLObject.inflight
}

// New creates an RTLObject clocked from coreDom divided by cfg.ClockDivider,
// whose DMA reads and writes the system's store. The object does not start
// ticking until Start is called (after reset and binding).
func New(cfg Config, coreDom *sim.ClockDomain, store *mem.Storage, w Wrapper) *RTLObject {
	if cfg.ClockDivider == 0 {
		cfg.ClockDivider = 1
	}
	r := &RTLObject{
		cfg:        cfg,
		q:          coreDom.Queue(),
		dom:        coreDom.Derived(cfg.Name+".clk", cfg.ClockDivider),
		store:      store,
		wrapper:    w,
		cpuPkts:    map[uint64]*port.Packet{},
		cpuPktPort: map[uint64]int{},
	}
	for i := 0; i < NumCPUPorts; i++ {
		name := fmt.Sprintf("%s.cpu_side[%d]", cfg.Name, i)
		r.cpuPorts[i] = port.NewResponsePort(name, &cpuSide{r, i})
		r.respQs[i] = port.NewRespQueue(name, r.q, r.cpuPorts[i])
		r.respQs[i].SetOwner(r.q.Owner(cfg.Name, "resp-drain"))
	}
	for i := 0; i < NumMemPorts; i++ {
		i := i
		r.memPorts[i] = port.NewRequestPort(fmt.Sprintf("%s.mem_side[%d]", cfg.Name, i), &memSide{r, i})
	}
	r.ticker = sim.NewTicker(cfg.Name+".tick", r.dom, sim.PriDefault, r.tick)
	r.ticker.SetOwner(r.q.Owner(cfg.Name, "tick"))
	if sl, ok := w.(Sleeper); ok && !cfg.PerCycle {
		r.sleeper = sl
		r.q.RegisterSettler(r)
	}
	return r
}

// Name returns the configured name.
func (r *RTLObject) Name() string { return r.cfg.Name }

// SetPacketIDSpace namespaces the object's DMA packet IDs under the given
// non-zero space tag (port.PacketPool.SetIDSpace). The SoC assigns every
// RTLObject its own space so the object's ID sequence depends only on its own
// allocation order, not on what other components or other simulations in the
// process allocate in between: the same system mints the same IDs, and writes
// the same checkpoint bytes, in every run. Must be called before Start.
func (r *RTLObject) SetPacketIDSpace(space uint64) { r.pool.SetIDSpace(space) }

// Stats returns a snapshot of activity counters, with the cycles a sleeping
// object owes applied first (arithmetic only: reading never ticks the model).
func (r *RTLObject) Stats() Stats {
	r.Settle()
	return r.stats
}

// Wrapper returns the wrapped model (for testbench-style inspection).
func (r *RTLObject) Wrapper() Wrapper { return r.wrapper }

// CPUPort returns CPU-side response port i, for binding SoC masters.
func (r *RTLObject) CPUPort(i int) *port.ResponsePort { return r.cpuPorts[i] }

// MemPort returns memory-side request port i, for binding toward caches or
// memory controllers.
func (r *RTLObject) MemPort(i int) *port.RequestPort { return r.memPorts[i] }

// OnInterrupt registers the IRQ edge callback (e.g. the CPU's interrupt pin).
func (r *RTLObject) OnInterrupt(fn func(level bool)) { r.irqFn = fn }

// Start resets the wrapper and begins ticking at the next model clock edge.
// Like starting a ticker twice, starting an object that is already running —
// asleep included — panics.
func (r *RTLObject) Start() {
	if r.asleep {
		panic(fmt.Sprintf("rtlobject %s: Start while running (asleep since tick %d)", r.cfg.Name, r.sleepFrom))
	}
	r.wrapper.Reset()
	r.ticker.Start()
}

// Stop halts the tick event; outstanding memory responses are still
// delivered to the wrapper on a subsequent Start.
func (r *RTLObject) Stop() {
	r.Settle()
	r.asleep = false
	r.ticker.Stop()
}

// Settle applies the model cycles a sleeping object owes: every clock edge
// since it fell asleep that ticking per cycle would have run by now. The
// object stays asleep. It implements sim.Settler: the queue's run loops
// settle the object when they return, and Stats, GuardDetail and the
// checkpoint path settle on their own, so only code that reads the wrapped
// model through a back door from inside an event, or between two
// EventQueue.Step calls, needs to call it. A no-op on an object that is
// awake.
func (r *RTLObject) Settle() {
	if r.asleep {
		r.settle()
	}
}

// Wake settles a sleeping object and puts its tick event back on the next
// model clock edge, the one ticking per cycle would run next. Call it before
// changing the wrapped model behind the object's back (a direct register
// write, a fault injection): the promise the model made when it fell asleep
// does not cover that. A no-op on an object that is awake or stopped.
func (r *RTLObject) Wake() {
	if r.asleep {
		r.settle()
		r.asleep = false
		r.ticker.MoveTo(r.sleepFrom)
	}
}

// Owed reports how many model edges a sleeping object owes now, 0 for one
// that is awake: an input that reaches the wrapper at this instant without
// waking it is first seen by that edge of the ones Advance will apply (0 is
// the next edge settled or ticked). It counts what Settle would pay and
// changes nothing.
func (r *RTLObject) Owed() uint64 {
	if !r.asleep {
		return 0
	}
	return r.ticker.Owed(r.sleepFrom)
}

// BeforeSave implements sim.Settler: a checkpoint is always that of an awake
// object, so the stream needs no notion of sleep and a restored object simply
// ticks.
func (r *RTLObject) BeforeSave() { r.Wake() }

// settle pays the edges owed since sleepFrom and returns how many there were.
// What a quiet cycle does besides ticking the wrapper is counted here: the
// tick itself, and — pumpMem's whole effect in a cycle no input has touched —
// one stall when requests are queued behind the in-flight cap.
func (r *RTLObject) settle() uint64 {
	n := r.ticker.Credit(r.sleepFrom)
	if n == 0 {
		return 0
	}
	r.sleepFrom += sim.Tick(n) * r.dom.Period()
	r.stats.Ticks += n
	if r.sendHead < len(r.sendQ) && r.cfg.MaxInflight > 0 && len(r.inflight) >= r.cfg.MaxInflight {
		r.stats.StallCycles += n
	}
	r.sleeper.Advance(n, r.pendingResp)
	r.pendingResp = r.pendingResp[:0]
	r.respData = r.respData[:0]
	return n
}

// sleep parks the tick event if the wrapper's coming cycles are quiet and
// reports whether it did. It runs at the end of a tick, when pumpMem has left
// the send queue empty, at the cap or blocked on a port — states only a
// response or a retry changes, and both settle before they act.
func (r *RTLObject) sleep() bool {
	k, wake := r.sleeper.Quiet()
	if k == 0 || len(r.pendingResp) > 0 || len(r.pendingCPU) > 0 {
		return false
	}
	r.asleep, r.wakeOn = true, wake
	r.sleepFrom = r.q.Now() + r.dom.Period()
	if k != Forever {
		r.ticker.StartAt(r.sleepFrom + sim.Tick(k)*r.dom.Period())
	}
	return true
}

// tick is the model-cycle event: exchange structs with the wrapper and move
// packets (§3.4's tick event function). It runs on every model clock edge
// for a wrapper that is not a Sleeper, and on the edges that are not quiet
// for one that is.
func (r *RTLObject) tick(cycle uint64) bool {
	if r.asleep {
		// The parked event has reached the end of the horizon: the edges
		// before this one are owed, and the ticker read this cycle's number
		// before they were credited.
		cycle += r.settle()
		r.asleep = false
	}
	r.in = Input{
		Cycle:        cycle,
		MemResponses: r.pendingResp,
		CPURequests:  r.pendingCPU,
	}
	// Keep the backing arrays: the wrapper consumes the batch during Tick,
	// so the next tick can refill the same storage.
	r.pendingResp = r.pendingResp[:0]
	r.pendingCPU = r.pendingCPU[:0]
	out := r.wrapper.Tick(&r.in)
	r.respData = r.respData[:0]
	r.stats.Ticks++
	if out != nil {
		for _, resp := range out.CPUResponses {
			r.completeCPU(resp)
		}
		if len(out.MemRequests) > 0 {
			// Compact the drained prefix before growing the queue so the
			// backing array is reused instead of reallocated.
			if r.sendHead > 0 && len(r.sendQ)+len(out.MemRequests) > cap(r.sendQ) {
				n := copy(r.sendQ, r.sendQ[r.sendHead:])
				for i := n; i < len(r.sendQ); i++ {
					r.sendQ[i] = MemRequest{}
				}
				r.sendQ = r.sendQ[:n]
				r.sendHead = 0
			}
			r.sendQ = append(r.sendQ, out.MemRequests...)
		}
		if out.Interrupt != r.irqLevel {
			r.irqLevel = out.Interrupt
			if r.trace.On() {
				r.trace.Logf("irq %v at model cycle %d", out.Interrupt, cycle)
			}
			if out.Interrupt {
				r.stats.Interrupts++
			}
			if r.irqFn != nil {
				r.irqFn(out.Interrupt)
			}
		}
	}
	r.pumpMem()
	return r.sleeper == nil || !r.sleep()
}

// pumpMem issues queued memory requests subject to the in-flight cap and
// port back-pressure.
func (r *RTLObject) pumpMem() {
	for r.sendHead < len(r.sendQ) {
		if r.cfg.MaxInflight > 0 && len(r.inflight) >= r.cfg.MaxInflight {
			r.stats.StallCycles++
			return
		}
		req := r.sendQ[r.sendHead]
		if req.Port < 0 || req.Port >= NumMemPorts {
			panic(fmt.Sprintf("rtlobject %s: bad mem port %d", r.cfg.Name, req.Port))
		}
		if r.blocked[req.Port] {
			return
		}
		addr := req.Addr
		if r.cfg.TLB != nil {
			addr = r.cfg.TLB.Translate(addr)
		}
		var pkt *port.Packet
		if req.Write {
			pkt = r.pool.Get(port.WriteReq, addr, len(req.Data))
		} else {
			pkt = r.pool.GetRead(addr, req.Size)
		}
		pkt.ReqTick = r.q.Now()
		txn := r.txns.Get()
		*txn = memTxn{req: req, issued: r.q.Now(), slot: len(r.inflight)}
		txn.req.Data = nil
		pkt.PushSenderState(txn)
		if !r.memPorts[req.Port].SendTimingReq(pkt) {
			pkt.PopSenderState()
			pkt.Release()
			r.txns.Put(txn)
			r.blocked[req.Port] = true
			return
		}
		if req.Write {
			// Accepted: the write's bytes are the store's from now on.
			r.store.Write(addr, req.Data)
		}
		if r.trace.On() {
			r.trace.Logf("mem issue id=%d port=%d write=%v addr=%#x (%d inflight)",
				req.ID, req.Port, req.Write, addr, len(r.inflight)+1)
		}
		r.inflight = append(r.inflight, txn)
		if req.Write {
			r.stats.MemWrites++
			r.stats.MemWriteBytes += uint64(len(req.Data))
		} else {
			r.stats.MemReads++
			r.stats.MemReadBytes += uint64(req.Size)
		}
		// Drain from the head, clearing the slot so the retired request's
		// Data buffer is not pinned by the queue.
		r.sendQ[r.sendHead] = MemRequest{}
		r.sendHead++
		if r.sendHead == len(r.sendQ) {
			r.sendQ = r.sendQ[:0]
			r.sendHead = 0
		}
	}
}

// InflightCount reports currently outstanding memory requests.
func (r *RTLObject) InflightCount() int { return len(r.inflight) }

// QueuedCount reports memory requests waiting behind the in-flight cap.
func (r *RTLObject) QueuedCount() int { return len(r.sendQ) - r.sendHead }

func (r *RTLObject) completeCPU(resp CPUResponse) {
	pkt, ok := r.cpuPkts[resp.ID]
	if !ok {
		panic(fmt.Sprintf("rtlobject %s: CPU response for unknown id %d", r.cfg.Name, resp.ID))
	}
	delete(r.cpuPkts, resp.ID)
	pi := r.cpuPktPort[resp.ID]
	delete(r.cpuPktPort, resp.ID)
	pkt.MakeResponse()
	if pkt.Cmd == port.ReadResp {
		pkt.AllocateData()
		copy(pkt.Data, resp.Data)
	}
	r.respQs[pi].Schedule(pkt, r.q.Now())
}

// cpuSide adapts one CPU-side response port to the RTLObject.
type cpuSide struct {
	r *RTLObject
	i int
}

func (c *cpuSide) RecvTimingReq(pkt *port.Packet) bool {
	r := c.r
	// A CPU request can change anything in the model: it always wakes it.
	r.Wake()
	r.nextCPUID++
	id := r.nextCPUID
	req := CPURequest{
		ID:    id,
		Port:  c.i,
		Addr:  pkt.Addr,
		Size:  pkt.Size,
		Write: pkt.Cmd.IsWrite(),
	}
	if pkt.Cmd.IsWrite() {
		req.Data = append([]byte(nil), pkt.Data...)
	}
	if pkt.NeedsResponse() {
		r.cpuPkts[id] = pkt
		r.cpuPktPort[id] = c.i
	}
	r.pendingCPU = append(r.pendingCPU, req)
	r.stats.CPURequests++
	return true
}

func (c *cpuSide) RecvRespRetry() { c.r.respQs[c.i].RecvRespRetry() }

// memSide adapts one memory-side request port to the RTLObject.
type memSide struct {
	r *RTLObject
	i int
}

func (m *memSide) RecvTimingResp(pkt *port.Packet) bool {
	r := m.r
	if r.asleep {
		// Pay the edges up to this arrival while the in-flight count is
		// still what they saw, then either wake for the edge that would have
		// consumed the response or leave it held for the next one paid.
		kind := WriteAck
		if pkt.Cmd == port.ReadResp {
			kind = ReadData
		}
		if r.wakeOn&kind != 0 {
			r.Wake()
		} else {
			r.settle()
		}
	}
	txn := r.retire(pkt.PopSenderState())
	id := txn.req.ID
	lat := r.q.Now() - txn.issued
	if r.trace.On() {
		r.trace.Logf("mem done id=%d write=%v latency=%d", id, txn.req.Write, uint64(lat))
	}
	r.stats.TotalMemLat += lat
	r.stats.RetiredMem++
	resp := MemResponse{ID: id, Write: txn.req.Write, Latency: lat}
	if pkt.Cmd == port.ReadResp {
		// Read from the store as it is now into the payload buffer of the
		// tick that will deliver it. When the buffer grows, earlier payloads
		// stay where they are, in the array it grew out of.
		n := len(r.respData)
		r.respData = slices.Grow(r.respData, pkt.Size)[:n+pkt.Size]
		r.store.Read(pkt.Addr, r.respData[n:])
		resp.Data = r.respData[n:len(r.respData):len(r.respData)]
	}
	r.txns.Put(txn)
	// This object's hold on the packet ends (a write queue may still hold a
	// posted write).
	pkt.Release()
	r.pendingResp = append(r.pendingResp, resp)
	// Retiring a request may unblock the overflow queue immediately.
	r.pumpMem()
	return true
}

// retire takes the transaction named by a response's sender state off the
// in-flight list.
func (r *RTLObject) retire(state any) *memTxn {
	txn, _ := state.(*memTxn)
	if id, restored := state.(uint64); restored {
		// A packet restored from a checkpoint carries the bare request ID.
		for _, t := range r.inflight {
			if t.req.ID == id {
				txn = t
				break
			}
		}
	}
	if txn == nil || txn.slot >= len(r.inflight) || r.inflight[txn.slot] != txn {
		panic(fmt.Sprintf("rtlobject %s: memory response for unknown transaction %v", r.cfg.Name, state))
	}
	n := len(r.inflight) - 1
	r.inflight[txn.slot], r.inflight[n].slot = r.inflight[n], txn.slot
	r.inflight[n] = nil
	r.inflight = r.inflight[:n]
	return txn
}

func (m *memSide) RecvReqRetry() {
	// The wrapper never sees a retry, so it wakes nothing; what it issues can
	// bring the object to the cap, which the edges before it did not see.
	m.r.Settle()
	m.r.blocked[m.i] = false
	m.r.pumpMem()
}
