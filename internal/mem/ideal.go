package mem

import (
	"gem5rtl/internal/obs"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

// IdealMemory responds to every access after a fixed latency with unlimited
// bandwidth and concurrency — the "ideal 1-cycle main memory" the paper
// normalises its design-space exploration against, and the perfect-memory
// configuration of Table 3.
type IdealMemory struct {
	q       *sim.EventQueue
	store   *Storage
	prt     *port.ResponsePort
	rq      *port.RespQueue
	latency sim.Tick

	Reads  uint64
	Writes uint64

	// trace is the Mem debug-flag logger (nil = off; see AttachTracer).
	trace *obs.Logger
}

// NewIdealMemory creates an ideal memory with the given fixed latency
// (use one core-clock period for the paper's 1-cycle baseline).
func NewIdealMemory(name string, q *sim.EventQueue, store *Storage, latency sim.Tick) *IdealMemory {
	m := &IdealMemory{q: q, store: store, latency: latency}
	m.prt = port.NewResponsePort(name, m)
	m.rq = port.NewRespQueue(name, q, m.prt)
	return m
}

// Port returns the memory's response port.
func (m *IdealMemory) Port() *port.ResponsePort { return m.prt }

// RecvTimingReq implements port.Responder; it never refuses.
func (m *IdealMemory) RecvTimingReq(pkt *port.Packet) bool {
	if m.trace.On() {
		m.trace.Logf("%s addr=%#x size=%d", pkt.Cmd, pkt.Addr, pkt.Size)
	}
	if pkt.Cmd.IsWrite() {
		m.Writes++
		m.store.Write(pkt.Addr, pkt.Data)
		if !pkt.NeedsResponse() {
			// Writeback terminus: the data is stored, recycle the packet.
			pkt.Release()
			return true
		}
		pkt.MakeResponse()
	} else {
		m.Reads++
		pkt.MakeResponse()
		pkt.AllocateData()
		m.store.Read(pkt.Addr, pkt.Data)
	}
	m.rq.Schedule(pkt, m.q.Now()+m.latency)
	return true
}

// RecvRespRetry implements port.Responder.
func (m *IdealMemory) RecvRespRetry() { m.rq.RecvRespRetry() }
