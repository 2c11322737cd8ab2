package port

import (
	"fmt"
	"sort"

	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/sim"
)

// SavePacket serialises one packet, including its sender-state stack. Each
// stack entry is either a bare uint64 (request IDs pushed by the RTLObject
// bridge, tagged ckpt.RawU64SenderState) or a registered ckpt.SenderState
// implementation; anything else fails the save — extending the closed set of
// sender-state types requires teaching it to checkpoint itself.
func SavePacket(w *ckpt.Writer, p *Packet) {
	w.U64(p.ID)
	w.I64(int64(p.Cmd))
	w.U64(p.Addr)
	w.Int(p.Size)
	w.Bytes(p.Data)
	w.U64(uint64(p.ReqTick))
	w.Int(p.RequestorID)
	w.Int(len(p.senderState))
	for _, s := range p.senderState {
		switch v := s.(type) {
		case uint64:
			w.U8(ckpt.RawU64SenderState)
			w.U64(v)
		case ckpt.SenderState:
			w.U8(v.SenderStateKind())
			v.EncodeSenderState(w)
		default:
			w.Fail(fmt.Errorf("port: packet %d carries non-checkpointable sender state %T", p.ID, s))
			return
		}
	}
}

// LoadPacket reconstructs a packet written by SavePacket. Restored packets
// are distinct host objects with the original IDs; no component compares
// packet pointers across the save boundary, so identity is carried entirely
// by the ID and the sender-state stack.
func LoadPacket(r *ckpt.Reader) *Packet {
	p := &Packet{}
	p.ID = r.U64()
	// A restored packet is pre-checkpoint traffic by definition: move the
	// checker grandfather line so its remaining handshakes (a response to a
	// request the fresh checker never saw) are adopted, not flagged.
	noteRestoredID(p.ID)
	p.Cmd = Cmd(r.I64())
	p.Addr = r.U64()
	p.Size = r.Int()
	p.Data = r.Bytes()
	p.ReqTick = sim.Tick(r.U64())
	p.RequestorID = r.Int()
	n := r.Len()
	for i := 0; i < n; i++ {
		kind := r.U8()
		if r.Err() != nil {
			return p
		}
		if kind == ckpt.RawU64SenderState {
			p.senderState = append(p.senderState, r.U64())
			continue
		}
		p.senderState = append(p.senderState, ckpt.DecodeSenderState(kind, r))
	}
	return p
}

// SaveState captures a response port's retry bookkeeping. The flags live on
// the link's response side for both directions, so responders save their
// ports as part of their own state.
func (p *ResponsePort) SaveState(w *ckpt.Writer) error {
	w.Section("port.resp")
	w.Bool(p.needReqRetry)
	w.Bool(p.needRespRetry)
	return w.Err()
}

// RestoreState reinstates the retry flags.
func (p *ResponsePort) RestoreState(r *ckpt.Reader) error {
	r.Section("port.resp")
	p.needReqRetry = r.Bool()
	p.needRespRetry = r.Bool()
	return r.Err()
}

// canonicalStampSeqs maps each entry's stamp Seq — a raw dispatch sequence
// number whose absolute value depends on how many events the process
// dispatched before, including any run before a restore — to a canonical
// ordinal among the entries that share its (When, Prio, Rank) dispatch
// identity, ordered by raw Seq (stable by position for full ties). The
// relative order is all the queue uses, so every save of the same state emits
// the same ordinals; and ordinals stay far below sim.CanonicalSeqBase, so
// fresh post-restore dispatch stamps always order behind restored ones with
// the same (When, Prio, Rank).
func canonicalStampSeqs(entries []queuedPkt) []uint64 {
	type key struct {
		when sim.Tick
		prio int32
		rank uint64
	}
	groups := make(map[key][]int, len(entries))
	for i := range entries {
		s := entries[i].stamp
		k := key{s.When, s.Prio, s.Rank}
		groups[k] = append(groups[k], i)
	}
	ord := make([]uint64, len(entries))
	for _, idxs := range groups {
		sort.SliceStable(idxs, func(a, b int) bool {
			return entries[idxs[a]].stamp.Seq < entries[idxs[b]].stamp.Seq
		})
		for o, i := range idxs {
			ord[i] = uint64(o)
		}
	}
	return ord
}

// saveQueuedPkts serialises a pending slice: packets, arrival ticks and
// sender stamps (with canonicalised stamp ordinals).
func saveQueuedPkts(w *ckpt.Writer, entries []queuedPkt) {
	w.Int(len(entries))
	ord := canonicalStampSeqs(entries)
	for i := range entries {
		qp := &entries[i]
		SavePacket(w, qp.pkt)
		w.U64(uint64(qp.when))
		w.U64(uint64(qp.stamp.When))
		w.I64(int64(qp.stamp.Prio))
		w.U64(qp.stamp.Rank)
		w.U64(ord[i])
	}
}

// loadQueuedPkts reads a pending slice written by saveQueuedPkts, appending
// onto dst.
func loadQueuedPkts(r *ckpt.Reader, dst []queuedPkt) []queuedPkt {
	n := r.Len()
	for i := 0; i < n && r.Err() == nil; i++ {
		pkt := LoadPacket(r)
		when := sim.Tick(r.U64())
		stamp := sim.Stamp{
			When: sim.Tick(r.U64()),
			Prio: int32(r.I64()),
			Rank: r.U64(),
			Seq:  r.U64(),
		}
		dst = append(dst, queuedPkt{pkt: pkt, when: when, stamp: stamp})
	}
	return dst
}

// SaveState captures the queued responses, the blocked flag and the drain
// event of a RespQueue.
func (rq *RespQueue) SaveState(w *ckpt.Writer) error {
	w.Section("port.respq")
	w.Bool(rq.blocked)
	sim.SaveEvent(w, rq.ev)
	saveQueuedPkts(w, rq.pending.ents[rq.pending.head:])
	return w.Err()
}

// RestoreState reinstates the queue contents and re-materialises the drain
// event.
func (rq *RespQueue) RestoreState(r *ckpt.Reader) error {
	r.Section("port.respq")
	rq.blocked = r.Bool()
	rq.q.RestoreEvent(r, rq.ev)
	rq.restore(loadQueuedPkts(r, rq.pending.ents[:0]))
	return r.Err()
}

// SaveState captures the queued requests, the blocked flag and the drain
// event of a ReqQueue. Parked packets are written in their place in queue
// order, so the bytes do not say which packets had been refused.
func (rq *ReqQueue) SaveState(w *ckpt.Writer) error {
	w.Section("port.reqq")
	w.Bool(rq.blocked)
	sim.SaveEvent(w, rq.ev)
	ents := rq.pending.ents[rq.pending.head:]
	if rq.parked > 0 {
		ents = append([]queuedPkt(nil), ents...)
		for i := range rq.lanes {
			ents = append(ents, rq.lanes[i].ents[rq.lanes[i].head:]...)
		}
		sort.Slice(ents, func(a, b int) bool { return ents[a].before(&ents[b]) })
	}
	saveQueuedPkts(w, ents)
	return w.Err()
}

// RestoreState reinstates the queue contents and re-materialises the drain
// event. Nothing is restored as parked: the first walk of a blocked queue
// offers (and re-parks) what the saved queue had refused, which the peer's
// admission promise makes indistinguishable from having kept it parked.
func (rq *ReqQueue) RestoreState(r *ckpt.Reader) error {
	r.Section("port.reqq")
	rq.blocked = r.Bool()
	rq.q.RestoreEvent(r, rq.ev)
	rq.restore(loadQueuedPkts(r, rq.pending.ents[:0]))
	rq.lanes, rq.parked = nil, 0
	return r.Err()
}

// PacketIDMark returns the current value of the process-global packet-ID
// counter: the high-water mark a checkpoint must record.
func PacketIDMark() uint64 { return packetID.Load() }

// FastForwardPacketID advances the global packet-ID counter to at least mark.
// Restore paths call this with the checkpoint's recorded mark so a resumed
// run never mints an ID that collides with a packet already in flight inside
// the restored state. Lock-free and monotonic: concurrent restores and
// running simulations only ever move the counter forward.
func FastForwardPacketID(mark uint64) {
	for {
		cur := packetID.Load()
		if cur >= mark {
			break
		}
		if packetID.CompareAndSwap(cur, mark) {
			break
		}
	}
	// A restore also moves the checker grandfather line: packets at or below
	// the mark were minted before the checkpoint, so a fresh process's
	// checkers (attached at Bind time, before RestoreState repopulates the
	// queues) must adopt rather than reject their traffic.
	noteRestoredID(mark)
}

// noteRestoredID raises the checker grandfather line of id's ID space to at
// least id's local counter value (see restoreMarks).
func noteRestoredID(id uint64) {
	if id == 0 {
		return
	}
	space, local := id>>IDSpaceShift, id&IDSpaceLocalMask
	restoreMu.Lock()
	if restoreMarks[space] < local {
		restoreMarks[space] = local
	}
	restoreMu.Unlock()
	everRestored.Store(true)
}

// SetPacketIDForTest sets the counter to an absolute value, including
// backwards. Restore-equivalence tests use it to replay the ID sequence a
// fresh process would see when comparing in-process runs. Rewinding is only
// safe while no other simulation is allocating packets — production restore
// paths must use FastForwardPacketID.
func SetPacketIDForTest(v uint64) { packetID.Store(v) }
