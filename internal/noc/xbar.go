// Package noc implements the SoC interconnect: a coherent-crossbar-style
// switch (Table 1: 128-bit wide, 2 cycles) connecting upstream agents
// (core cache hierarchies, RTLObjects) to downstream responders (the shared
// LLC, memory controllers). The crossbar adds a fixed forward latency,
// serialises payloads over its link width (throughput modelling), routes
// responses back to the originating port via packet sender state, and
// propagates back-pressure with a bounded per-front-port outstanding limit.
package noc

import (
	"fmt"

	"gem5rtl/internal/obs"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

// Config parameterises a crossbar.
type Config struct {
	Name string
	// Latency is the forwarding latency per traversal (each direction).
	Latency sim.Tick
	// BytesPerTick is link bandwidth; 128-bit @ 2 GHz = 16 B / 500 ps.
	// Zero disables throughput modelling.
	WidthBytes int
	ClockTick  sim.Tick
	// MaxOutstanding bounds in-flight requests per front port (back-pressure).
	MaxOutstanding int
}

// Route maps an address range [Base, Base+Size) to a downstream port index.
type Route struct {
	Base uint64
	Size uint64
	Down int
}

// Xbar is the crossbar switch.
type Xbar struct {
	cfg    Config
	q      *sim.EventQueue
	fronts []*port.ResponsePort
	respQs []*port.RespQueue
	downs  []*port.RequestPort
	reqQs  []*port.ReqQueue
	routes []Route
	// interleave: when > 0, addresses route to down ports by block
	// interleaving instead of ranges.
	interleave int

	outstanding []int
	// Per-front-port link occupancy, one layer per direction (gem5's
	// crossbar layers): ingress carries request payloads, egress carries
	// response payloads.
	ingressBusy []sim.Tick
	egressBusy  []sim.Tick

	// frontStates holds one immutable frontState per front port, shared by
	// every in-flight packet from that port instead of allocating per
	// request. Safe because frontState is never mutated after construction
	// and the checkpoint codec encodes it by value.
	frontStates []*frontState

	forwarded uint64
	Responses uint64

	// trace is the NoC debug-flag logger (nil = off; see AttachTracer).
	trace *obs.Logger
}

// New creates a crossbar with nFront upstream ports and nDown downstream
// ports. Configure routing with AddRoute or SetInterleave before use.
func New(cfg Config, q *sim.EventQueue, nFront, nDown int) *Xbar {
	if cfg.MaxOutstanding == 0 {
		cfg.MaxOutstanding = 64
	}
	x := &Xbar{cfg: cfg, q: q, outstanding: make([]int, nFront),
		ingressBusy: make([]sim.Tick, nFront), egressBusy: make([]sim.Tick, nFront)}
	for i := 0; i < nFront; i++ {
		i := i
		fp := port.NewResponsePort(fmt.Sprintf("%s.front[%d]", cfg.Name, i), &xbarFront{x, i})
		x.fronts = append(x.fronts, fp)
		frq := port.NewRespQueue(fmt.Sprintf("%s.front[%d]", cfg.Name, i), q, fp)
		frq.SetOwner(q.Owner(cfg.Name, "front-drain"))
		x.respQs = append(x.respQs, frq)
		x.frontStates = append(x.frontStates, &frontState{front: i})
	}
	for i := 0; i < nDown; i++ {
		i := i
		dp := port.NewRequestPort(fmt.Sprintf("%s.down[%d]", cfg.Name, i), &xbarDown{x, i})
		x.downs = append(x.downs, dp)
		drq := port.NewReqQueue(fmt.Sprintf("%s.down[%d]", cfg.Name, i), q, dp)
		drq.SetOwner(q.Owner(cfg.Name, "down-drain"))
		x.reqQs = append(x.reqQs, drq)
	}
	return x
}

// FrontPort returns upstream response port i.
func (x *Xbar) FrontPort(i int) *port.ResponsePort { return x.fronts[i] }

// DownPort returns downstream request port i.
func (x *Xbar) DownPort(i int) *port.RequestPort { return x.downs[i] }

// AddRoute maps an address range to a downstream port.
func (x *Xbar) AddRoute(r Route) { x.routes = append(x.routes, r) }

// SetInterleave routes by 64-byte block modulo the downstream count
// (used for banked LLCs).
func (x *Xbar) SetInterleave(on bool) {
	if on {
		x.interleave = 64
	} else {
		x.interleave = 0
	}
}

func (x *Xbar) route(addr uint64) int {
	if x.interleave > 0 {
		return int(addr/uint64(x.interleave)) % len(x.downs)
	}
	for _, r := range x.routes {
		if addr >= r.Base && addr < r.Base+r.Size {
			return r.Down
		}
	}
	if len(x.routes) == 0 && len(x.downs) == 1 {
		return 0
	}
	panic(fmt.Sprintf("noc %s: no route for address %#x", x.cfg.Name, addr))
}

// occupancy returns the serialisation delay for a payload of n bytes.
func (x *Xbar) occupancy(n int) sim.Tick {
	if x.cfg.WidthBytes == 0 || x.cfg.ClockTick == 0 || n == 0 {
		return 0
	}
	flits := (n + x.cfg.WidthBytes - 1) / x.cfg.WidthBytes
	return sim.Tick(flits) * x.cfg.ClockTick
}

// xfer accounts occupancy on one directional port layer and returns the
// departure time.
func (x *Xbar) xfer(busy []sim.Tick, idx, bytes int) sim.Tick {
	start := x.q.Now()
	if busy[idx] > start {
		start = busy[idx]
	}
	busy[idx] = start + x.occupancy(bytes)
	return start + x.cfg.Latency
}

// ForwardedCount returns the total requests forwarded across all front lanes.
func (x *Xbar) ForwardedCount() uint64 { return x.forwarded }

type frontState struct {
	front int
}

type xbarFront struct {
	x *Xbar
	i int
}

func (f *xbarFront) RecvTimingReq(pkt *port.Packet) bool {
	x := f.x
	if x.outstanding[f.i] >= x.cfg.MaxOutstanding {
		if x.trace.On() {
			x.trace.Logf("front[%d] %s addr=%#x refused: %d outstanding",
				f.i, pkt.Cmd, pkt.Addr, x.outstanding[f.i])
		}
		return false
	}
	down := x.route(pkt.Addr)
	if x.trace.On() {
		x.trace.Logf("front[%d] %s addr=%#x -> down[%d]", f.i, pkt.Cmd, pkt.Addr, down)
	}
	if pkt.NeedsResponse() {
		pkt.PushSenderState(f.x.frontStates[f.i])
		x.outstanding[f.i]++
	}
	x.forwarded++
	payload := 0
	if pkt.Cmd.IsWrite() {
		payload = pkt.Size
	}
	x.reqQs[down].Schedule(pkt, x.xfer(x.ingressBusy, f.i, payload))
	return true
}

func (f *xbarFront) RecvRespRetry() { f.x.respQs[f.i].RecvRespRetry() }

type xbarDown struct {
	x *Xbar
	i int
}

func (d *xbarDown) RecvTimingResp(pkt *port.Packet) bool {
	x := d.x
	st := pkt.PopSenderState().(*frontState)
	x.Responses++
	if x.trace.On() {
		x.trace.Logf("down[%d] %s addr=%#x -> front[%d]", d.i, pkt.Cmd, pkt.Addr, st.front)
	}
	x.outstanding[st.front]--
	payload := 0
	if pkt.Cmd.IsRead() {
		payload = pkt.Size
	}
	x.respQs[st.front].Schedule(pkt, x.xfer(x.egressBusy, st.front, payload))
	// Freed an outstanding slot: allow a stalled front to retry.
	x.fronts[st.front].SendRetryReq()
	return true
}

func (d *xbarDown) RecvReqRetry() { d.x.reqQs[d.i].RecvReqRetry() }

// FunctionalAccess routes functional accesses downstream.
func (x *Xbar) FunctionalAccess(pkt *port.Packet) {
	x.downs[x.route(pkt.Addr)].SendFunctional(pkt)
}

// Ensure the front ports support functional forwarding.
func (f *xbarFront) FunctionalAccess(pkt *port.Packet) { f.x.FunctionalAccess(pkt) }

var _ port.Functional = (*xbarFront)(nil)
