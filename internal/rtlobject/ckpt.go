package rtlobject

import (
	"fmt"
	"sort"

	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/port"
)

// Exported codecs for the wrapper-protocol structs, shared with wrapper
// packages (nvdla, pmu) that queue these structs internally and so must
// checkpoint them too.

// CheckpointMemRequest saves or restores one MemRequest.
func CheckpointMemRequest(s *ckpt.Stream, req *MemRequest) {
	s.U64(&req.ID)
	s.U64(&req.Addr)
	s.Len(&req.Size)
	s.Bool(&req.Write)
	s.Bytes(&req.Data)
	s.Len(&req.Port)
}

// CheckpointMemResponse saves or restores one MemResponse.
func CheckpointMemResponse(s *ckpt.Stream, resp *MemResponse) {
	s.U64(&resp.ID)
	s.Bool(&resp.Write)
	s.Bytes(&resp.Data)
	s.U64((*uint64)(&resp.Latency))
}

// CheckpointCPURequest saves or restores one CPURequest.
func CheckpointCPURequest(s *ckpt.Stream, req *CPURequest) {
	s.U64(&req.ID)
	s.Len(&req.Port)
	s.U64(&req.Addr)
	s.Len(&req.Size)
	s.Bool(&req.Write)
	s.Bytes(&req.Data)
}

// SenderStateKind makes a transaction record on a packet's sender-state stack
// checkpoint as what it stands for, the bare request ID, which is what a
// restore puts on the stack.
func (t *memTxn) SenderStateKind() uint8 { return ckpt.RawU64SenderState }

// Checkpoint saves the request ID.
func (t *memTxn) Checkpoint(s *ckpt.Stream) { s.U64(&t.req.ID) }

// Checkpoint saves or restores the RTLObject bridge — tick event, wrapper
// exchange buffers, CPU-side packet table, memory-side in-flight table and
// overflow queue, port flags and response queues — then delegates to the
// wrapped model, which must itself implement ckpt.Checkpointable. A save
// writes maps sorted by ID so the stream is deterministic.
//
// A restore targets a freshly built RTLObject of identical configuration.
// The IRQ callback is not invoked for the restored level: the receiving
// component restores its own interrupt state from its section of the
// checkpoint. Start must NOT be called afterwards — it would reset the
// wrapper and restart the (already re-materialised) tick event.
func (r *RTLObject) Checkpoint(s *ckpt.Stream) error {
	if !s.Restoring() {
		// Normally a no-op: the queue, saved first, has already woken the
		// object.
		r.Wake()
	}
	s.Section("rtlobject." + r.cfg.Name)
	if err := r.ticker.Checkpoint(s); err != nil {
		return err
	}
	ckpt.Slice(s, &r.pendingCPU, CheckpointCPURequest)
	ckpt.Slice(s, &r.pendingResp, CheckpointMemResponse)
	type cpuPkt struct {
		id   uint64
		port int
		pkt  *port.Packet
	}
	var pkts []cpuPkt
	if !s.Restoring() {
		for id, pkt := range r.cpuPkts {
			pkts = append(pkts, cpuPkt{id, r.cpuPktPort[id], pkt})
		}
		sort.Slice(pkts, func(i, j int) bool { return pkts[i].id < pkts[j].id })
	}
	ckpt.Slice(s, &pkts, func(s *ckpt.Stream, p *cpuPkt) {
		s.U64(&p.id)
		s.Len(&p.port)
		port.CheckpointPacket(s, &p.pkt)
	})
	if s.Restoring() {
		r.cpuPkts = make(map[uint64]*port.Packet) // the stream's count: no size hints
		r.cpuPktPort = make(map[uint64]int)
		for _, p := range pkts {
			r.cpuPkts[p.id] = p.pkt
			r.cpuPktPort[p.id] = p.port
		}
	}
	s.U64(&r.nextCPUID)
	r.pool.CheckpointCounter(s)
	txns := r.inflight
	if !s.Restoring() {
		txns = append([]*memTxn(nil), r.inflight...)
		sort.Slice(txns, func(i, j int) bool { return txns[i].req.ID < txns[j].req.ID })
	}
	ckpt.Slice(s, &txns, func(s *ckpt.Stream, txn **memTxn) {
		if s.Restoring() {
			*txn = r.txns.Get()
			**txn = memTxn{}
		}
		CheckpointMemRequest(s, &(*txn).req)
		s.U64((*uint64)(&(*txn).issued))
	})
	if s.Restoring() {
		for i, txn := range txns {
			txn.slot = i
		}
		r.inflight = txns
	}
	sendQ := r.sendQ[r.sendHead:]
	ckpt.Slice(s, &sendQ, CheckpointMemRequest)
	if s.Restoring() {
		r.sendQ, r.sendHead = sendQ, 0
	}
	for i := range r.blocked {
		s.Bool(&r.blocked[i])
	}
	s.Bool(&r.irqLevel)
	st := &r.stats
	s.U64(&st.Ticks)
	s.U64(&st.MemReads)
	s.U64(&st.MemWrites)
	s.U64(&st.MemReadBytes)
	s.U64(&st.MemWriteBytes)
	s.U64(&st.CPURequests)
	s.U64(&st.Interrupts)
	s.U64(&st.StallCycles)
	s.U64((*uint64)(&st.TotalMemLat))
	s.U64(&st.RetiredMem)
	for i := range r.respQs {
		if err := r.respQs[i].Checkpoint(s); err != nil {
			return err
		}
		if err := r.cpuPorts[i].Checkpoint(s); err != nil {
			return err
		}
	}
	c, ok := r.wrapper.(ckpt.Checkpointable)
	if !ok {
		return fmt.Errorf("rtlobject %s: wrapper %s does not support checkpointing", r.cfg.Name, r.wrapper.Name())
	}
	return c.Checkpoint(s)
}
