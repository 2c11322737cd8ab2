package mem

import (
	"fmt"
	"sort"

	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

// SaveState serialises the sparse backing store. Pages are written sorted by
// page number so the stream is independent of map iteration order.
func (s *Storage) SaveState(w *ckpt.Writer) error {
	w.Section("mem.storage")
	w.U64(uint64(s.pageBits))
	pns := make([]uint64, 0, len(s.pages))
	for pn := range s.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	w.Int(len(pns))
	for _, pn := range pns {
		w.U64(pn)
		if p := s.pages[pn]; p != nil {
			w.Bytes(p)
		} else {
			w.Bytes(zeroPage[:1<<s.pageBits])
		}
	}
	return w.Err()
}

// RestoreState replaces the store contents with the checkpointed pages.
func (s *Storage) RestoreState(r *ckpt.Reader) error {
	r.Section("mem.storage")
	if pb := uint(r.U64()); r.Err() == nil && pb != s.pageBits {
		return fmt.Errorf("mem: checkpoint page size 2^%d does not match 2^%d", pb, s.pageBits)
	}
	n := r.Len()
	s.pages = make(map[uint64][]byte, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		pn := r.U64()
		s.pages[pn] = r.Bytes()
	}
	return r.Err()
}

// SaveState captures the ideal memory's counters, port flags and response
// queue.
func (m *IdealMemory) SaveState(w *ckpt.Writer) error {
	w.Section("mem.ideal")
	w.U64(m.Reads)
	w.U64(m.Writes)
	if err := m.prt.SaveState(w); err != nil {
		return err
	}
	return m.rq.SaveState(w)
}

// RestoreState reinstates the ideal memory state.
func (m *IdealMemory) RestoreState(r *ckpt.Reader) error {
	r.Section("mem.ideal")
	m.Reads = r.U64()
	m.Writes = r.U64()
	if err := m.prt.RestoreState(r); err != nil {
		return err
	}
	return m.rq.RestoreState(r)
}

// SaveState captures the scratchpad's bus occupancy, counters, port flags
// and response queue.
func (s *Scratchpad) SaveState(w *ckpt.Writer) error {
	w.Section("mem.spm")
	w.U64(uint64(s.busFreeAt))
	w.U64(s.Reads)
	w.U64(s.Writes)
	w.U64(s.Bytes)
	if err := s.prt.SaveState(w); err != nil {
		return err
	}
	return s.rq.SaveState(w)
}

// RestoreState reinstates the scratchpad state.
func (s *Scratchpad) RestoreState(r *ckpt.Reader) error {
	r.Section("mem.spm")
	s.busFreeAt = sim.Tick(r.U64())
	s.Reads = r.U64()
	s.Writes = r.U64()
	s.Bytes = r.U64()
	if err := s.prt.RestoreState(r); err != nil {
		return err
	}
	return s.rq.RestoreState(r)
}

// SaveState captures the DRAM controller: statistics, response path, tracked
// in-flight reads, and per-channel bank state, queues, drain hysteresis and
// issue events. Queued requests save only the packet and arrival time; their
// (bank, row) coordinates are a pure function of the address and are
// recomputed on restore.
func (d *DRAMCtrl) SaveState(w *ckpt.Writer) error {
	w.Section("mem.dram." + d.cfg.Name)
	saveDRAMStats(w, &d.stats)
	if err := d.prt.SaveState(w); err != nil {
		return err
	}
	if err := d.rq.SaveState(w); err != nil {
		return err
	}
	w.Int(len(d.inflightReads()))
	for _, pr := range d.inflightReads() {
		port.SavePacket(w, pr.pkt)
		w.U64(uint64(pr.arrived))
		sim.SaveEvent(w, &pr.ev)
	}
	w.Int(len(d.chans))
	for _, ch := range d.chans {
		w.Int(len(ch.banks))
		for _, b := range ch.banks {
			w.I64(b.openRow)
			w.U64(uint64(b.readyAt))
		}
		w.U64(uint64(ch.busFreeAt))
		w.Bool(ch.draining)
		sim.SaveEvent(w, ch.issueEv)
		saveDRAMQueue(w, ch.readQ)
		saveDRAMQueue(w, ch.writeQ)
	}
	return w.Err()
}

// RestoreState reinstates the controller state into a freshly built instance
// of identical configuration.
func (d *DRAMCtrl) RestoreState(r *ckpt.Reader) error {
	r.Section("mem.dram." + d.cfg.Name)
	restoreDRAMStats(r, &d.stats)
	if err := d.prt.RestoreState(r); err != nil {
		return err
	}
	if err := d.rq.RestoreState(r); err != nil {
		return err
	}
	n := r.Len()
	d.pendingReads, d.prHead = nil, 0
	for i := 0; i < n && r.Err() == nil; i++ {
		pkt := port.LoadPacket(r)
		pr := d.tracker(pkt, sim.Tick(r.U64()))
		d.pendingReads = append(d.pendingReads, pr)
		d.q.RestoreEvent(r, &pr.ev)
		if r.Err() == nil && !pr.ev.Scheduled() {
			// readDone finds the retiring read as the one whose event has
			// just fired, so every tracked read must have one pending.
			return fmt.Errorf("mem %s: checkpoint tracks a read with no completion pending", d.cfg.Name)
		}
	}
	if nc := r.Len(); r.Err() == nil && nc != len(d.chans) {
		return fmt.Errorf("mem %s: checkpoint has %d channels, controller has %d", d.cfg.Name, nc, len(d.chans))
	}
	for _, ch := range d.chans {
		if nb := r.Len(); r.Err() == nil && nb != len(ch.banks) {
			return fmt.Errorf("mem %s: checkpoint has %d banks/channel, controller has %d", d.cfg.Name, nb, len(ch.banks))
		}
		for b := range ch.banks {
			ch.banks[b].openRow = r.I64()
			ch.banks[b].readyAt = sim.Tick(r.U64())
		}
		ch.busFreeAt = sim.Tick(r.U64())
		ch.draining = r.Bool()
		d.q.RestoreEvent(r, ch.issueEv)
		ch.readQ = d.restoreDRAMQueue(r)
		ch.writeQ = d.restoreDRAMQueue(r)
	}
	return r.Err()
}

func saveDRAMQueue(w *ckpt.Writer, q []*dramRequest) {
	w.Int(len(q))
	for _, req := range q {
		port.SavePacket(w, req.pkt)
		w.U64(uint64(req.arrived))
	}
}

func (d *DRAMCtrl) restoreDRAMQueue(r *ckpt.Reader) []*dramRequest {
	n := r.Len()
	var q []*dramRequest
	for i := 0; i < n && r.Err() == nil; i++ {
		pkt := port.LoadPacket(r)
		arrived := sim.Tick(r.U64())
		_, bank, row := d.route(pkt.Addr)
		// A restored posted write's packet already carries its response
		// command, for which IsRead() is false — matching the write it models.
		req := d.reqs.Get()
		*req = dramRequest{pkt: pkt, bank: bank, row: row, arrived: arrived, isRead: pkt.Cmd.IsRead()}
		q = append(q, req)
	}
	return q
}

func saveDRAMStats(w *ckpt.Writer, s *DRAMStats) {
	w.U64(s.Reads)
	w.U64(s.Writes)
	w.U64(s.RowHits)
	w.U64(s.RowMisses)
	w.U64(s.BytesRead)
	w.U64(s.BytesWrit)
	w.U64(s.RetriesSent)
	w.U64(uint64(s.TotalRdLat))
	w.U64(s.RetiredRds)
}

func restoreDRAMStats(r *ckpt.Reader, s *DRAMStats) {
	s.Reads = r.U64()
	s.Writes = r.U64()
	s.RowHits = r.U64()
	s.RowMisses = r.U64()
	s.BytesRead = r.U64()
	s.BytesWrit = r.U64()
	s.RetriesSent = r.U64()
	s.TotalRdLat = sim.Tick(r.U64())
	s.RetiredRds = r.U64()
}
