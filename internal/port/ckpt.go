package port

import (
	"sort"

	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/sim"
)

// CheckpointPacket saves or restores one packet, including its sender-state
// stack (ckpt.Stream.SenderState). Restored packets are distinct host
// objects with the original IDs; no component compares packet pointers
// across the save boundary, so identity is carried entirely by the ID and
// the sender-state stack.
func CheckpointPacket(s *ckpt.Stream, pp **Packet) {
	if s.Restoring() {
		// A restored packet is pre-checkpoint traffic by definition: its
		// remaining handshakes (a response to a request the fresh checker
		// never saw) are adopted, not flagged.
		*pp = &Packet{restored: true}
	}
	p := *pp
	s.U64(&p.ID)
	s.Int((*int)(&p.Cmd))
	s.U64(&p.Addr)
	s.Int(&p.Size)
	s.Bytes(&p.Data)
	s.U64((*uint64)(&p.ReqTick))
	s.Int(&p.RequestorID)
	ckpt.Slice(s, &p.senderState, (*ckpt.Stream).SenderState)
}

// Checkpoint saves or restores a response port's retry bookkeeping. The
// flags live on the link's response side for both directions, so responders
// checkpoint their ports as part of their own state. A retry that a
// restored flag fires answers a refusal made before the checkpoint, so the
// link's checker, if any, is told to adopt one it has no record of.
func (p *ResponsePort) Checkpoint(s *ckpt.Stream) error {
	s.Section("port.resp")
	s.Bool(&p.needReqRetry)
	s.Bool(&p.needRespRetry)
	if s.Restoring() && p.checker != nil {
		p.checker.restored = true
	}
	return s.Err()
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

// checkpointQueued saves or restores a pending slice: packets, arrival ticks
// and sender stamps. A save writes a copy whose stamp Seqs are the canonical
// ordinals, leaving the queue's own entries as they are.
func checkpointQueued(s *ckpt.Stream, ents *[]queuedPkt) {
	if !s.Restoring() {
		canon := append([]queuedPkt(nil), *ents...)
		for i, o := range canonicalStampSeqs(canon) {
			canon[i].stamp.Seq = o
		}
		ents = &canon
	}
	ckpt.Slice(s, ents, func(s *ckpt.Stream, qp *queuedPkt) {
		CheckpointPacket(s, &qp.pkt)
		s.U64((*uint64)(&qp.when))
		s.U64((*uint64)(&qp.stamp.When))
		prio := int64(qp.stamp.Prio)
		s.I64(&prio)
		qp.stamp.Prio = int32(prio)
		s.U64(&qp.stamp.Rank)
		s.U64(&qp.stamp.Seq)
	})
}

// Checkpoint saves or restores the queued responses, the blocked flag and
// the drain event of a RespQueue.
func (rq *RespQueue) Checkpoint(s *ckpt.Stream) error {
	s.Section("port.respq")
	s.Bool(&rq.blocked)
	rq.q.CheckpointEvent(s, rq.ev)
	ents := rq.pending.ents[rq.pending.head:]
	checkpointQueued(s, &ents)
	if s.Restoring() {
		rq.restore(ents)
	}
	return s.Err()
}

// Checkpoint saves or restores the queued requests, the blocked flag and the
// drain event of a ReqQueue. Parked packets are saved in their place in
// queue order, so the bytes do not say which packets had been refused.
// Nothing is restored as parked: the first walk of a blocked queue offers
// (and re-parks) what the saved queue had refused, which the peer's
// admission promise makes indistinguishable from having kept it parked.
func (rq *ReqQueue) Checkpoint(s *ckpt.Stream) error {
	s.Section("port.reqq")
	s.Bool(&rq.blocked)
	rq.q.CheckpointEvent(s, rq.ev)
	ents := rq.pending.ents[rq.pending.head:]
	if rq.parked > 0 && !s.Restoring() {
		ents = append([]queuedPkt(nil), ents...)
		for i := range rq.lanes {
			ents = append(ents, rq.lanes[i].ents[rq.lanes[i].head:]...)
		}
		sort.Slice(ents, func(a, b int) bool { return ents[a].before(&ents[b]) })
	}
	checkpointQueued(s, &ents)
	if s.Restoring() {
		rq.restore(ents)
		rq.lanes, rq.parked = nil, 0
	}
	return s.Err()
}
