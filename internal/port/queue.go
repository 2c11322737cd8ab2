package port

import (
	"gem5rtl/internal/sim"
)

// queuedPkt is one scheduled delivery. stamp is the dispatch stamp of the
// event that inserted it (sim.EventQueue.CurrentStamp at Schedule time):
// entries are kept sorted by (when, stamp), so arrival-tick ties go to the
// sender that dispatched first, and a sender's dispatch identity — tick,
// priority, name rank, sequence — depends on component names, never on
// construction order. A checkpoint stores the stamps, so a restored queue
// keeps the order it was saved under. seq is the owning queue's insertion
// count: it orders full (when, stamp) ties the way a stable insert does, which
// lets a ReqQueue that has moved entries to its parked lists (see ReqQueue)
// merge them back into the one order they were inserted under.
type queuedPkt struct {
	pkt   *Packet
	when  sim.Tick
	stamp sim.Stamp
	seq   uint64
}

// before reports whether a sorts ahead of b in (when, stamp, seq) order.
func (a *queuedPkt) before(b *queuedPkt) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.stamp != b.stamp {
		return a.stamp.Less(b.stamp)
	}
	return a.seq < b.seq
}

// pktList is a sorted list of scheduled deliveries consumed from the front.
// ents[head:] holds the live entries: a consumed entry advances head instead
// of re-slicing, so the backing array is reused indefinitely; it resets to
// the front whenever the list empties.
type pktList struct {
	ents []queuedPkt
	head int
}

func (l *pktList) len() int { return len(l.ents) - l.head }

// insert places e at its sorted position, behind every entry it does not sort
// ahead of.
func (l *pktList) insert(e queuedPkt) {
	if l.head > 0 && len(l.ents) == cap(l.ents) {
		// Reclaim the consumed prefix before the append would grow the array.
		n := copy(l.ents, l.ents[l.head:])
		clear(l.ents[n:])
		l.ents = l.ents[:n]
		l.head = 0
	}
	i := len(l.ents)
	for i > l.head && e.before(&l.ents[i-1]) {
		i--
	}
	l.ents = append(l.ents, queuedPkt{})
	copy(l.ents[i+1:], l.ents[i:])
	l.ents[i] = e
}

// remove deletes the live entry ents[i]. Removing the front moves nothing.
func (l *pktList) remove(i int) {
	if i != l.head {
		last := len(l.ents) - 1
		copy(l.ents[i:], l.ents[i+1:])
		l.ents[last] = queuedPkt{}
		l.ents = l.ents[:last]
		return
	}
	l.ents[i] = queuedPkt{}
	l.head++
	if l.head == len(l.ents) {
		l.ents = l.ents[:0]
		l.head = 0
	}
}

// sendQueue is what RespQueue and ReqQueue share: a sorted list of scheduled
// packets and the drain event that walks it, armed for the head's readiness
// tick unless the queue is blocked on the peer's retry.
type sendQueue struct {
	q       *sim.EventQueue
	ev      *sim.Event
	pending pktList
	seq     uint64
	blocked bool
}

func (s *sendQueue) init(name string, q *sim.EventQueue, drain func()) {
	s.q = q
	s.ev = sim.NewEvent(name+".drain", drain).SetOwner(q.Owner(name, "drain"))
}

// SetOwner re-tags the drain event's self-profiler attribution owner.
func (s *sendQueue) SetOwner(id sim.OwnerID) { s.ev.SetOwner(id) }

// schedule inserts pkt for tick when (no earlier than now) keeping the list
// sorted by (readiness time, sender stamp), stable for equal keys.
func (s *sendQueue) schedule(pkt *Packet, when sim.Tick, stamp sim.Stamp) {
	if when < s.q.Now() {
		when = s.q.Now()
	}
	s.seq++
	s.pending.insert(queuedPkt{pkt, when, stamp, s.seq})
	s.arm()
}

func (s *sendQueue) arm() {
	if s.blocked || s.pending.len() == 0 {
		return
	}
	when := s.pending.ents[s.pending.head].when
	if s.ev.Scheduled() {
		if s.ev.When() <= when {
			return
		}
		s.q.Deschedule(s.ev)
	}
	s.q.Schedule(s.ev, when)
}

// restore replaces the list with loaded entries (already in queue order).
func (s *sendQueue) restore(ents []queuedPkt) {
	for i := range ents {
		s.seq++
		ents[i].seq = s.seq
	}
	s.pending = pktList{ents: ents}
}

// RespQueue schedules response packets for future delivery through a
// ResponsePort, transparently handling refusals and retries. It reproduces
// gem5's queued-port behaviour: components decide *when* a response is ready
// (e.g. after a memory access latency) and the queue deals with the timing
// protocol. Deliveries preserve readiness order.
type RespQueue struct {
	sendQueue
	port *ResponsePort
}

// NewRespQueue creates a queue draining through port on event queue q. The
// drain event is attributed to owner (name, "drain") by default; owners that
// prefer a cleaner attribution label can override it with SetOwner.
func NewRespQueue(name string, q *sim.EventQueue, port *ResponsePort) *RespQueue {
	rq := &RespQueue{port: port}
	rq.init(name, q, rq.drain)
	return rq
}

// Schedule queues pkt (which must already be a response) for delivery at the
// given absolute tick, stamped with the current dispatch context.
func (rq *RespQueue) Schedule(pkt *Packet, when sim.Tick) {
	if !pkt.IsResponse() {
		panic("port: RespQueue.Schedule with non-response packet")
	}
	rq.schedule(pkt, when, rq.q.CurrentStamp())
}

// Empty reports whether no responses are queued.
func (rq *RespQueue) Empty() bool { return rq.pending.len() == 0 }

// Len returns the number of queued responses.
func (rq *RespQueue) Len() int { return rq.pending.len() }

// drain delivers the ready responses in order. Each is taken off the list
// before it is sent: the receiver may schedule a zero-latency response into
// this queue from inside the delivery, and that one can sort ahead of the
// entry being delivered, so "the head" after the send need not be it.
func (rq *RespQueue) drain() {
	p := &rq.pending
	for p.len() > 0 && p.ents[p.head].when <= rq.q.Now() {
		e := p.ents[p.head]
		p.remove(p.head)
		if !rq.port.SendTimingResp(e.pkt) {
			// Peer refused: put it back where it was and hold everything
			// until RecvRespRetry.
			p.insert(e)
			rq.blocked = true
			return
		}
	}
	rq.arm()
}

// RecvRespRetry must be called by the owning responder's RecvRespRetry.
func (rq *RespQueue) RecvRespRetry() {
	rq.blocked = false
	rq.drain()
}

// ReqQueue is the symmetric helper for requestors: it schedules request
// packets for future transmission through a RequestPort, handling refusals.
//
// A refusal does not block later ready packets: a multi-channel memory
// controller may refuse a request for one full channel while accepting
// traffic for others, and head-of-line blocking here would serialise
// independent streams. So every drain walks the ready packets in queue order
// and every retry walks them again. What keeps that from costing the number
// of packets waiting per retry is the peer's admission-class declaration
// (ResponsePort.DeclareAdmissionClasses): once a packet of a class has been
// refused in a walk, the rest of that class is known to be refused too and is
// passed over without being offered.
//
// Packets that have not been refused live in one sorted list, as in a
// RespQueue, and a queue that is never refused does nothing else. A refused
// packet moves to its class's parked list (a responder that declares nothing
// is one class); a walk offers the parked lists' heads and the list's ready
// head merged in (when, stamp, insertion) order — the order of the single
// list they came from — so what is offered first, accepted, and at which tick
// is what offering every ready packet in that order produces.
type ReqQueue struct {
	sendQueue
	port *RequestPort

	// lanes[c] is class c's parked list; parked counts their entries. Every
	// parked packet is ready, and while any is parked the queue is blocked.
	lanes  []parkedLane
	parked int
	// walk numbers the drains, so a lane can record that its class was
	// refused in the current one without a flag to clear.
	walk uint64
}

// parkedLane holds one admission class's refused packets in queue order.
type parkedLane struct {
	pktList
	// cur is the drain's position, counted from the head: the live entries
	// before it have been offered (or passed over) in the current walk.
	cur int
	// refusedIn is the last walk that refused a packet of this class.
	refusedIn uint64
}

// NewReqQueue creates a queue transmitting through port. The drain event is
// attributed to owner (name, "drain") by default; see RespQueue.SetOwner.
func NewReqQueue(name string, q *sim.EventQueue, port *RequestPort) *ReqQueue {
	rq := &ReqQueue{port: port}
	rq.init(name, q, rq.drain)
	return rq
}

// Schedule queues a request for transmission at the given absolute tick,
// stamped with the current dispatch context. While the queue is blocked the
// packet waits for the next retry even if it would be accepted.
func (rq *ReqQueue) Schedule(pkt *Packet, when sim.Tick) {
	if pkt.IsResponse() {
		panic("port: ReqQueue.Schedule with response packet")
	}
	rq.schedule(pkt, when, rq.q.CurrentStamp())
}

// Empty reports whether no requests are queued.
func (rq *ReqQueue) Empty() bool { return rq.Len() == 0 }

// Len returns the number of queued requests.
func (rq *ReqQueue) Len() int { return rq.pending.len() + rq.parked }

// drain transmits every ready packet it can, in queue order: each step takes
// whichever of the parked lists' next entries and the list's ready head sorts
// first. Refused packets are parked and retried on RecvReqRetry. The two kinds
// of peer differ only in what a refusal does to the refused class's lane: with
// the admission promise the walk passes over the rest of it (and parks later
// packets of the class unoffered), without it the walk steps to the next
// entry and offers that too.
func (rq *ReqQueue) drain() {
	now := rq.q.Now()
	classOf := rq.port.peer.classOf
	rq.walk++
	// open counts the parked entries this walk has yet to offer or pass over;
	// at zero (always, for a queue nothing is parked in) the lanes are not
	// looked at.
	open := rq.parked
	if open > 0 {
		for i := range rq.lanes {
			rq.lanes[i].cur = 0
		}
	}
	refused := false
	for {
		var e *queuedPkt
		from := -1
		if p := &rq.pending; p.len() > 0 && p.ents[p.head].when <= now {
			e = &p.ents[p.head]
		}
		if open > 0 {
			for i := range rq.lanes {
				l := &rq.lanes[i]
				if l.cur < l.len() && (e == nil || l.ents[l.head+l.cur].before(e)) {
					e, from = &l.ents[l.head+l.cur], i
				}
			}
		}
		if e == nil {
			break
		}
		if from >= 0 {
			l := &rq.lanes[from]
			switch {
			case rq.port.SendTimingReq(e.pkt):
				l.remove(l.head + l.cur)
				rq.parked--
				open--
			case classOf != nil:
				open -= l.skip(rq.walk)
				refused = true
			default:
				l.cur++
				open--
			}
			continue
		}
		// The list's ready head, taken off the list before it is offered: the
		// peer may schedule a request into this queue from inside the offer,
		// and that one can sort ahead of it (see RespQueue.drain). Its class
		// matters once a class has been refused in this walk — a packet of a
		// refused class is parked without being offered — or when it is
		// refused itself.
		head := *e
		rq.pending.remove(rq.pending.head)
		class := 0
		if refused {
			class = classOf(head.pkt)
		}
		if !refused || rq.lane(class).refusedIn != rq.walk {
			if rq.port.SendTimingReq(head.pkt) {
				continue
			}
			if classOf != nil {
				if !refused {
					class = classOf(head.pkt)
					refused = true
				}
				open -= rq.lane(class).skip(rq.walk)
			}
		}
		// What the walk has taken from the lane sorts ahead of the packet and
		// what it has yet to take behind, so it lands at the cursor or (in a
		// passed-over stretch) ahead of it, and the cursor moves on by one.
		l := rq.lane(class)
		l.insert(head)
		l.cur++
		rq.parked++
	}
	if rq.parked > 0 {
		rq.blocked = true
		return
	}
	rq.arm()
}

// lane returns class c's parked list, growing the set to the peer's declared
// class count the first time a packet is parked.
func (rq *ReqQueue) lane(c int) *parkedLane {
	if c >= len(rq.lanes) {
		n := c + 1
		if d := rq.port.peer.classes; d > n {
			n = d
		}
		rq.lanes = append(rq.lanes, make([]parkedLane, n-len(rq.lanes))...)
	}
	return &rq.lanes[c]
}

// skip records that the lane's class was refused in walk w and moves the
// cursor past what is left of the lane, returning how many entries that is.
func (l *parkedLane) skip(w uint64) int {
	n := l.len() - l.cur
	l.cur = l.len()
	l.refusedIn = w
	return n
}

// RecvReqRetry must be called by the owning requestor's RecvReqRetry.
func (rq *ReqQueue) RecvReqRetry() {
	rq.blocked = false
	rq.drain()
}
