package mem

import (
	"fmt"
	"sort"

	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/port"
)

// Checkpoint saves or restores the sparse backing store. A save writes the
// pages sorted by page number, so the stream is independent of map
// iteration order; a restore replaces the store contents with them.
func (s *Storage) Checkpoint(cs *ckpt.Stream) error {
	cs.Section("mem.storage")
	pb := uint64(s.pageBits)
	cs.U64(&pb)
	if cs.Err() == nil && uint(pb) != s.pageBits {
		return fmt.Errorf("mem: checkpoint page size 2^%d does not match 2^%d", pb, s.pageBits)
	}
	type page struct {
		pn   uint64
		data []byte
	}
	var pages []page
	if !cs.Restoring() {
		for pn, p := range s.pages {
			if p == nil {
				p = zeroPage[:1<<s.pageBits]
			}
			pages = append(pages, page{pn, p})
		}
		sort.Slice(pages, func(i, j int) bool { return pages[i].pn < pages[j].pn })
	}
	ckpt.Slice(cs, &pages, func(cs *ckpt.Stream, p *page) {
		cs.U64(&p.pn)
		cs.Bytes(&p.data)
	})
	if cs.Restoring() {
		s.pages = make(map[uint64][]byte) // the stream's count: no size hint
		for _, p := range pages {
			s.pages[p.pn] = p.data
		}
	}
	return cs.Err()
}

// Checkpoint saves or restores the ideal memory's counters, port flags and
// response queue.
func (m *IdealMemory) Checkpoint(s *ckpt.Stream) error {
	s.Section("mem.ideal")
	s.U64(&m.Reads)
	s.U64(&m.Writes)
	if err := m.prt.Checkpoint(s); err != nil {
		return err
	}
	return m.rq.Checkpoint(s)
}

// Checkpoint saves or restores the scratchpad's bus occupancy, counters,
// port flags and response queue.
func (s *Scratchpad) Checkpoint(cs *ckpt.Stream) error {
	cs.Section("mem.spm")
	cs.U64((*uint64)(&s.busFreeAt))
	cs.U64(&s.Reads)
	cs.U64(&s.Writes)
	cs.U64(&s.Bytes)
	if err := s.prt.Checkpoint(cs); err != nil {
		return err
	}
	return s.rq.Checkpoint(cs)
}

// Checkpoint saves or restores the DRAM controller: statistics, response
// path, tracked in-flight reads, and per-channel bank state, queues, drain
// hysteresis and issue events. A restore targets a freshly built instance
// of identical configuration.
func (d *DRAMCtrl) Checkpoint(s *ckpt.Stream) error {
	s.Section("mem.dram." + d.cfg.Name)
	st := &d.stats
	s.U64(&st.Reads)
	s.U64(&st.Writes)
	s.U64(&st.RowHits)
	s.U64(&st.RowMisses)
	s.U64(&st.BytesRead)
	s.U64(&st.BytesWrit)
	s.U64(&st.RetriesSent)
	s.U64((*uint64)(&st.TotalRdLat))
	s.U64(&st.RetiredRds)
	if err := d.prt.Checkpoint(s); err != nil {
		return err
	}
	if err := d.rq.Checkpoint(s); err != nil {
		return err
	}
	reads := d.inflightReads()
	ckpt.Slice(s, &reads, func(s *ckpt.Stream, pr **dramPendingRead) {
		if s.Restoring() {
			*pr = d.tracker(nil, 0)
		}
		port.CheckpointPacket(s, &(*pr).pkt)
		s.U64((*uint64)(&(*pr).arrived))
		d.q.CheckpointEvent(s, &(*pr).ev)
		if s.Restoring() && s.Err() == nil && !(*pr).ev.Scheduled() {
			// readDone finds the retiring read as the one whose event has
			// just fired, so every tracked read must have one pending.
			s.Fail(fmt.Errorf("mem %s: checkpoint tracks a read with no completion pending", d.cfg.Name))
		}
	})
	if s.Restoring() {
		d.pendingReads, d.prHead = reads, 0
	}
	nc := len(d.chans)
	s.Len(&nc)
	if s.Err() == nil && nc != len(d.chans) {
		return fmt.Errorf("mem %s: checkpoint has %d channels, controller has %d", d.cfg.Name, nc, len(d.chans))
	}
	for _, ch := range d.chans {
		nb := len(ch.banks)
		s.Len(&nb)
		if s.Err() == nil && nb != len(ch.banks) {
			return fmt.Errorf("mem %s: checkpoint has %d banks/channel, controller has %d", d.cfg.Name, nb, len(ch.banks))
		}
		for b := range ch.banks {
			s.I64(&ch.banks[b].openRow)
			s.U64((*uint64)(&ch.banks[b].readyAt))
		}
		s.U64((*uint64)(&ch.busFreeAt))
		s.Bool(&ch.draining)
		d.q.CheckpointEvent(s, ch.issueEv)
		d.checkpointQueue(s, &ch.readQ)
		d.checkpointQueue(s, &ch.writeQ)
	}
	return s.Err()
}

// checkpointQueue saves or restores a channel queue. Queued requests save
// only the packet and arrival time; their (bank, row) coordinates are a pure
// function of the address and are recomputed on restore.
func (d *DRAMCtrl) checkpointQueue(s *ckpt.Stream, q *[]*dramRequest) {
	ckpt.Slice(s, q, func(s *ckpt.Stream, req **dramRequest) {
		if s.Restoring() {
			*req = d.reqs.Get()
		}
		r := *req
		port.CheckpointPacket(s, &r.pkt)
		s.U64((*uint64)(&r.arrived))
		if s.Restoring() {
			_, r.bank, r.row = d.route(r.pkt.Addr)
			// A restored posted write's packet already carries its response
			// command, for which IsRead() is false — matching the write it
			// models.
			r.isRead = r.pkt.Cmd.IsRead()
		}
	})
}
