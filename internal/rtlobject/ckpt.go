package rtlobject

import (
	"fmt"
	"sort"

	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

// Exported codecs for the wrapper-protocol structs, shared with wrapper
// packages (nvdla, pmu) that queue these structs internally and so must
// serialise them too.

// SaveMemRequest writes one MemRequest.
func SaveMemRequest(w *ckpt.Writer, req *MemRequest) {
	w.U64(req.ID)
	w.U64(req.Addr)
	w.Int(req.Size)
	w.Bool(req.Write)
	w.Bytes(req.Data)
	w.Int(req.Port)
}

// LoadMemRequest reads one MemRequest.
func LoadMemRequest(r *ckpt.Reader) MemRequest {
	return MemRequest{
		ID:    r.U64(),
		Addr:  r.U64(),
		Size:  r.Len(),
		Write: r.Bool(),
		Data:  r.Bytes(),
		Port:  r.Len(),
	}
}

// SaveMemResponse writes one MemResponse.
func SaveMemResponse(w *ckpt.Writer, resp *MemResponse) {
	w.U64(resp.ID)
	w.Bool(resp.Write)
	w.Bytes(resp.Data)
	w.U64(uint64(resp.Latency))
}

// LoadMemResponse reads one MemResponse.
func LoadMemResponse(r *ckpt.Reader) MemResponse {
	return MemResponse{
		ID:      r.U64(),
		Write:   r.Bool(),
		Data:    r.Bytes(),
		Latency: sim.Tick(r.U64()),
	}
}

// SaveCPURequest writes one CPURequest.
func SaveCPURequest(w *ckpt.Writer, req *CPURequest) {
	w.U64(req.ID)
	w.Int(req.Port)
	w.U64(req.Addr)
	w.Int(req.Size)
	w.Bool(req.Write)
	w.Bytes(req.Data)
}

// LoadCPURequest reads one CPURequest.
func LoadCPURequest(r *ckpt.Reader) CPURequest {
	return CPURequest{
		ID:    r.U64(),
		Port:  r.Len(),
		Addr:  r.U64(),
		Size:  r.Len(),
		Write: r.Bool(),
		Data:  r.Bytes(),
	}
}

// SenderStateKind makes a transaction record on a packet's sender-state stack
// checkpoint as what it stands for, the bare request ID.
func (t *memTxn) SenderStateKind() uint8 { return ckpt.RawU64SenderState }

// EncodeSenderState writes the request ID.
func (t *memTxn) EncodeSenderState(w *ckpt.Writer) { w.U64(t.req.ID) }

// SaveState captures the RTLObject bridge — tick event, wrapper exchange
// buffers, CPU-side packet table, memory-side in-flight table and overflow
// queue, port flags and response queues — then delegates to the wrapped
// model, which must itself implement ckpt.Checkpointable. Maps are written
// sorted by ID so the stream is deterministic.
func (r *RTLObject) SaveState(w *ckpt.Writer) error {
	// Normally a no-op: the queue, saved first, has already woken the object.
	r.Wake()
	w.Section("rtlobject." + r.cfg.Name)
	if err := r.ticker.SaveState(w); err != nil {
		return err
	}
	w.Int(len(r.pendingCPU))
	for i := range r.pendingCPU {
		SaveCPURequest(w, &r.pendingCPU[i])
	}
	w.Int(len(r.pendingResp))
	for i := range r.pendingResp {
		SaveMemResponse(w, &r.pendingResp[i])
	}
	ids := make([]uint64, 0, len(r.cpuPkts))
	for id := range r.cpuPkts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.Int(len(ids))
	for _, id := range ids {
		w.U64(id)
		w.Int(r.cpuPktPort[id])
		port.SavePacket(w, r.cpuPkts[id])
	}
	w.U64(r.nextCPUID)
	w.U64(r.pool.SaveCounter())
	txns := append([]*memTxn(nil), r.inflight...)
	sort.Slice(txns, func(i, j int) bool { return txns[i].req.ID < txns[j].req.ID })
	w.Int(len(txns))
	for _, txn := range txns {
		SaveMemRequest(w, &txn.req)
		w.U64(uint64(txn.issued))
	}
	w.Int(len(r.sendQ) - r.sendHead)
	for i := r.sendHead; i < len(r.sendQ); i++ {
		SaveMemRequest(w, &r.sendQ[i])
	}
	for i := range r.blocked {
		w.Bool(r.blocked[i])
	}
	w.Bool(r.irqLevel)
	saveRTLStats(w, &r.stats)
	for i := range r.respQs {
		if err := r.respQs[i].SaveState(w); err != nil {
			return err
		}
		if err := r.cpuPorts[i].SaveState(w); err != nil {
			return err
		}
	}
	c, ok := r.wrapper.(ckpt.Checkpointable)
	if !ok {
		return fmt.Errorf("rtlobject %s: wrapper %s does not support checkpointing", r.cfg.Name, r.wrapper.Name())
	}
	return c.SaveState(w)
}

// RestoreState reinstates the bridge into a freshly built RTLObject of
// identical configuration. The IRQ callback is not invoked for the restored
// level: the receiving component restores its own interrupt state from its
// section of the checkpoint. Start must NOT be called afterwards — it would
// reset the wrapper and restart the (already re-materialised) tick event.
func (r *RTLObject) RestoreState(rd *ckpt.Reader) error {
	rd.Section("rtlobject." + r.cfg.Name)
	if err := r.ticker.RestoreState(rd); err != nil {
		return err
	}
	n := rd.Len()
	r.pendingCPU = nil
	for i := 0; i < n && rd.Err() == nil; i++ {
		r.pendingCPU = append(r.pendingCPU, LoadCPURequest(rd))
	}
	n = rd.Len()
	r.pendingResp = nil
	for i := 0; i < n && rd.Err() == nil; i++ {
		r.pendingResp = append(r.pendingResp, LoadMemResponse(rd))
	}
	n = rd.Len()
	r.cpuPkts = make(map[uint64]*port.Packet, n)
	r.cpuPktPort = make(map[uint64]int, n)
	for i := 0; i < n && rd.Err() == nil; i++ {
		id := rd.U64()
		pi := rd.Len()
		r.cpuPkts[id] = port.LoadPacket(rd)
		r.cpuPktPort[id] = pi
	}
	r.nextCPUID = rd.U64()
	r.pool.RestoreCounter(rd.U64())
	n = rd.Len()
	r.inflight = nil
	for i := 0; i < n && rd.Err() == nil; i++ {
		req := LoadMemRequest(rd)
		r.inflight = append(r.inflight, &memTxn{req: req, issued: sim.Tick(rd.U64()), slot: i})
	}
	n = rd.Len()
	r.sendQ = nil
	r.sendHead = 0
	for i := 0; i < n && rd.Err() == nil; i++ {
		r.sendQ = append(r.sendQ, LoadMemRequest(rd))
	}
	for i := range r.blocked {
		r.blocked[i] = rd.Bool()
	}
	r.irqLevel = rd.Bool()
	restoreRTLStats(rd, &r.stats)
	for i := range r.respQs {
		if err := r.respQs[i].RestoreState(rd); err != nil {
			return err
		}
		if err := r.cpuPorts[i].RestoreState(rd); err != nil {
			return err
		}
	}
	c, ok := r.wrapper.(ckpt.Checkpointable)
	if !ok {
		return fmt.Errorf("rtlobject %s: wrapper %s does not support checkpointing", r.cfg.Name, r.wrapper.Name())
	}
	return c.RestoreState(rd)
}

func saveRTLStats(w *ckpt.Writer, s *Stats) {
	w.U64(s.Ticks)
	w.U64(s.MemReads)
	w.U64(s.MemWrites)
	w.U64(s.MemReadBytes)
	w.U64(s.MemWriteBytes)
	w.U64(s.CPURequests)
	w.U64(s.Interrupts)
	w.U64(s.StallCycles)
	w.U64(uint64(s.TotalMemLat))
	w.U64(s.RetiredMem)
}

func restoreRTLStats(r *ckpt.Reader, s *Stats) {
	s.Ticks = r.U64()
	s.MemReads = r.U64()
	s.MemWrites = r.U64()
	s.MemReadBytes = r.U64()
	s.MemWriteBytes = r.U64()
	s.CPURequests = r.U64()
	s.Interrupts = r.U64()
	s.StallCycles = r.U64()
	s.TotalMemLat = sim.Tick(r.U64())
	s.RetiredMem = r.U64()
}
