package port

import (
	"fmt"
	"math/rand"
	"testing"

	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/conform"
	"gem5rtl/internal/sim"
)

// refReqQueue is the request queue as it was before admission classes: one
// sorted slice, every drain offers every ready packet in order and a refused
// packet keeps its place. It is kept here as the oracle ReqQueue is measured
// against — what is accepted, in which order and at which tick, when the queue
// blocks, and what a checkpoint of it holds must all be what this produces.
type refReqQueue struct {
	q       *sim.EventQueue
	port    *RequestPort
	ev      *sim.Event
	pending []queuedPkt
	blocked bool
}

func newRefReqQueue(name string, q *sim.EventQueue, port *RequestPort) *refReqQueue {
	rq := &refReqQueue{q: q, port: port}
	rq.ev = sim.NewEvent(name+".drain", rq.drain).SetOwner(q.Owner(name, "drain"))
	return rq
}

func (rq *refReqQueue) Schedule(pkt *Packet, when sim.Tick) {
	rq.schedule(pkt, when, rq.q.CurrentStamp())
}

func (rq *refReqQueue) schedule(pkt *Packet, when sim.Tick, stamp sim.Stamp) {
	if when < rq.q.Now() {
		when = rq.q.Now()
	}
	i := len(rq.pending)
	for i > 0 {
		p := &rq.pending[i-1]
		if p.when < when || (p.when == when && !stamp.Less(p.stamp)) {
			break
		}
		i--
	}
	rq.pending = append(rq.pending, queuedPkt{})
	copy(rq.pending[i+1:], rq.pending[i:])
	rq.pending[i] = queuedPkt{pkt: pkt, when: when, stamp: stamp}
	rq.arm()
}

func (rq *refReqQueue) Len() int        { return len(rq.pending) }
func (rq *refReqQueue) isBlocked() bool { return rq.blocked }

func (rq *refReqQueue) arm() {
	if rq.blocked || len(rq.pending) == 0 {
		return
	}
	when := rq.pending[0].when
	if rq.ev.Scheduled() {
		if rq.ev.When() <= when {
			return
		}
		rq.q.Deschedule(rq.ev)
	}
	rq.q.Schedule(rq.ev, when)
}

func (rq *refReqQueue) drain() {
	now := rq.q.Now()
	anyRefused := false
	i := 0
	for i < len(rq.pending) && rq.pending[i].when <= now {
		if rq.port.SendTimingReq(rq.pending[i].pkt) {
			rq.pending = append(rq.pending[:i], rq.pending[i+1:]...)
			continue
		}
		anyRefused = true
		i++
	}
	if anyRefused {
		rq.blocked = true
		return
	}
	rq.arm()
}

func (rq *refReqQueue) RecvReqRetry() {
	rq.blocked = false
	rq.drain()
}

func (rq *refReqQueue) Checkpoint(s *ckpt.Stream) error {
	s.Section("port.reqq")
	s.Bool(&rq.blocked)
	rq.q.CheckpointEvent(s, rq.ev)
	checkpointQueued(s, &rq.pending)
	return s.Err()
}

func (rq *ReqQueue) isBlocked() bool { return rq.blocked }

// reqQueue is what the differential test drives: ReqQueue or its oracle.
type reqQueue interface {
	Schedule(*Packet, sim.Tick)
	schedule(*Packet, sim.Tick, sim.Stamp)
	RecvReqRetry()
	Len() int
	isBlocked() bool
	Checkpoint(*ckpt.Stream) error
}

// classResponder is the model responder: class c (the packet's address) holds
// at most capacity[c] requests until the test frees a slot. A packet marked
// as a hit (RequestorID 1) is accepted whatever the occupancy, the way a cache
// with its MSHRs full still accepts a hit — only a responder that has not
// declared admission classes is sent those.
type classResponder struct {
	q        *sim.EventQueue
	port     *ResponsePort
	capacity []int
	used     []int
	offers   int
	accepted []accept
	log      uint64 // every accept, folded in order
}

// accept is one accepted request: which packet, at which tick.
type accept struct {
	id uint64
	at sim.Tick
}

func (a accept) String() string { return fmt.Sprintf("%d@%d", a.id, a.at) }

func (r *classResponder) classOf(pkt *Packet) int { return int(pkt.Addr) }

func (r *classResponder) RecvTimingReq(pkt *Packet) bool {
	r.offers++
	c := r.classOf(pkt)
	if pkt.RequestorID != 1 {
		if r.used[c] >= r.capacity[c] {
			return false
		}
		r.used[c]++
	}
	r.accepted = append(r.accepted, accept{pkt.ID, r.q.Now()})
	r.log = (r.log^pkt.ID)*1099511628211 ^ uint64(r.q.Now())
	return true
}

func (r *classResponder) RecvRespRetry() {}

// free releases one slot, of the first occupied class at or after k, and
// signals the retry as a memory controller does on every issued command.
func (r *classResponder) free(k int) {
	for i := range r.used {
		if c := (k + i) % len(r.used); r.used[c] > 0 {
			r.used[c]--
			break
		}
	}
	r.port.SendRetryReq()
}

type queueOwner struct{ rq reqQueue }

func (o *queueOwner) RecvTimingResp(*Packet) bool { return true }
func (o *queueOwner) RecvReqRetry()               { o.rq.RecvReqRetry() }

// diffAction is one scripted step: a batch of arrivals, a freed slot, or a
// checkpoint.
type diffAction struct {
	at       sim.Tick
	arrivals []diffArrival
	free     int // class hint; -1 = none
	save     bool
}

type diffArrival struct {
	id      uint64
	class   int
	hit     bool
	when    sim.Tick
	stamped bool
	stamp   sim.Stamp
}

// diffWorld is one queue under test with its own event queue and responder,
// driven through a script one action at a time: one side of the differential
// (a conform.Machine whose actions are script indices; len(script) runs the
// queue dry).
type diffWorld struct {
	setup  diffSetup
	script []diffAction
	next   int // index of the first action not yet performed
	q      *sim.EventQueue
	rq     reqQueue
	resp   *classResponder
	// parkedSaves counts the checkpoints taken with packets parked.
	parkedSaves int
}

type diffSetup struct {
	ref      bool // the oracle instead of ReqQueue
	declare  bool // the responder declares its admission classes
	checked  bool // protocol checker on the link
	restore  bool // continue in restored worlds after each save
	capacity []int
}

func newDiffWorld(s diffSetup) *diffWorld {
	w := &diffWorld{setup: s, q: sim.NewEventQueue()}
	w.resp = &classResponder{q: w.q, capacity: s.capacity, used: make([]int, len(s.capacity))}
	w.resp.port = NewResponsePort("model", w.resp)
	if s.declare {
		w.resp.port.DeclareAdmissionClasses(len(s.capacity), w.resp.classOf)
	}
	owner := &queueOwner{}
	reqP := NewRequestPort("sender", owner)
	if s.checked {
		BindChecked(reqP, w.resp.port)
	} else {
		BindUnchecked(reqP, w.resp.port)
	}
	if s.ref {
		w.rq = newRefReqQueue("sender", w.q, reqP)
	} else {
		w.rq = NewReqQueue("sender", w.q, reqP)
	}
	owner.rq = w.rq
	return w
}

// play schedules the script's actions from index from on, in script order.
func (w *diffWorld) play(script []diffAction, from int) {
	w.script, w.next = script, from
	for i := from; i < len(script); i++ {
		a := &script[i]
		w.q.ScheduleFunc("act", a.at, func() {
			for _, ar := range a.arrivals {
				pkt := &Packet{ID: ar.id, Cmd: ReadReq, Addr: uint64(ar.class), Size: 64}
				if ar.hit {
					pkt.RequestorID = 1
				}
				if ar.stamped {
					w.rq.schedule(pkt, ar.when, ar.stamp)
				} else {
					w.rq.Schedule(pkt, ar.when)
				}
			}
			if a.free >= 0 {
				w.resp.free(a.free)
			}
			w.next = i + 1
		})
	}
}

// Apply dispatches events up to and including action i's.
func (w *diffWorld) Apply(i int) {
	if i == len(w.script) {
		w.q.Run()
		return
	}
	for w.next <= i && w.q.Step() {
	}
}

// diffDigest is the queue's visible state and every accept so far.
type diffDigest struct {
	Now            sim.Tick
	Blocked, Retry bool
	Len, Accepted  int
	Accepts        uint64
	Action         int
}

func (w *diffWorld) Digest() diffDigest {
	return diffDigest{Now: w.q.Now(), Blocked: w.rq.isBlocked(), Retry: w.resp.port.WaitingForReqRetry(),
		Len: w.rq.Len(), Accepted: len(w.resp.accepted), Accepts: w.resp.log, Action: w.next}
}

func (w *diffWorld) Save(t testing.TB) []byte {
	if rq, ok := w.rq.(*ReqQueue); ok && rq.parked > 0 {
		w.parkedSaves++
	}
	return conform.Save(t, w.rq, w.resp.port)
}

// Restore builds a fresh world holding the saved queue, the responder's
// occupancy and accept log, and the rest of the script.
func (w *diffWorld) Restore(t testing.TB, data []byte) conform.Machine[int, diffDigest] {
	if !w.setup.restore {
		return nil
	}
	n := newDiffWorld(w.setup)
	copy(n.resp.used, w.resp.used)
	n.resp.accepted, n.resp.log = append(n.resp.accepted, w.resp.accepted...), w.resp.log
	conform.Restore(t, data, n.rq, n.resp.port)
	n.play(w.script, w.next)
	return n
}

// diffScript draws a script that keeps the responder contended: arrivals
// outpace frees for most of it, several share a (when, stamp) key, some carry
// explicit stamps that sort them ahead of packets already waiting, and a tail
// of frees lets everything through at the end.
func diffScript(rng *rand.Rand, classes int, hits bool) []diffAction {
	var script []diffAction
	var at sim.Tick
	id := uint64(0)
	steps := 150 + rng.Intn(150)
	for i := 0; i < steps; i++ {
		at += sim.Tick(rng.Intn(4) * 10) // 0: several actions share a tick
		a := diffAction{at: at, free: -1}
		switch k := rng.Intn(40); {
		case k < 20:
			when := at + sim.Tick(rng.Intn(6)*10)
			if rng.Intn(8) == 0 && at >= 20 {
				when = at - 20 // in the past: clamped to now
			}
			for n := 1 + rng.Intn(4); n > 0; n-- {
				id++
				ar := diffArrival{id: id, class: rng.Intn(classes), when: when}
				ar.hit = hits && rng.Intn(5) == 0
				if rng.Intn(4) == 0 {
					ar.stamped = true
					ar.stamp = sim.Stamp{When: sim.Tick(rng.Intn(int(at) + 1)), Rank: uint64(rng.Intn(3)), Seq: uint64(rng.Intn(50))}
				}
				if rng.Intn(3) == 0 {
					when += 10 // the rest of the batch one step later
				}
				a.arrivals = append(a.arrivals, ar)
			}
		case k < 39:
			a.free = rng.Intn(classes)
		default:
			a.save = true
		}
		script = append(script, a)
	}
	for i := uint64(0); i <= id; i++ {
		at += 10
		script = append(script, diffAction{at: at, free: rng.Intn(classes)})
	}
	return script
}

// runDifferential plays one seeded script on ReqQueue and on the oracle,
// compared after every action (conform.Script): once uninterrupted, and once
// continuing in restored worlds after every checkpoint. The offers and the
// checkpoints taken with packets parked are the uninterrupted run's.
func runDifferential(t *testing.T, seed int64, declare, checked bool) (offersRef, offersNew, parkedSaves int) {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Logf("seed %d, declare %v, checked %v", seed, declare, checked)
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	classes := 1 + rng.Intn(4)
	capacity := make([]int, classes)
	for c := range capacity {
		capacity[c] = 1 + rng.Intn(3)
	}
	script := diffScript(rng, classes, !declare)
	steps := make([]int, len(script)+1)
	for i := range steps {
		steps[i] = i
	}
	isSave := func(i int) bool { return i < len(script) && script[i].save }
	for _, restore := range []bool{false, true} {
		ref := newDiffWorld(diffSetup{ref: true, restore: restore, capacity: capacity})
		nw := newDiffWorld(diffSetup{declare: declare, checked: checked, restore: restore, capacity: capacity})
		ref.play(script, 0)
		nw.play(script, 0)
		res := conform.Script[int, diffDigest](t, nw, ref, steps, isSave)
		if d := res.Subject.Digest(); d.Len != 0 {
			t.Fatalf("queues not drained: %d left", d.Len)
		}
		if !restore {
			offersRef, offersNew, parkedSaves = ref.resp.offers, nw.resp.offers, nw.parkedSaves
		}
	}
	return offersRef, offersNew, parkedSaves
}

// TestReqQueueMatchesOfferEverythingWalk is the mechanism's contract: against
// a responder that declares admission classes, ReqQueue accepts the same
// packets at the same ticks, blocks and unblocks at the same steps and saves
// the same bytes as the walk that offers every ready packet on every drain —
// and gets there with fewer offers.
func TestReqQueueMatchesOfferEverythingWalk(t *testing.T) {
	var offersRef, offersNew, parkedSaves int
	for seed := int64(1); seed <= 100; seed++ {
		a, b, p := runDifferential(t, seed, true, false)
		offersRef += a
		offersNew += b
		parkedSaves += p
	}
	if offersNew >= offersRef {
		t.Fatalf("ReqQueue made %d offers, the offer-everything walk %d", offersNew, offersRef)
	}
	if parkedSaves < 100 {
		t.Fatalf("only %d checkpoints were taken with packets parked; the scripts no longer contend", parkedSaves)
	}
	t.Logf("offers: offer-everything walk %d, ReqQueue %d; %d checkpoints with packets parked", offersRef, offersNew, parkedSaves)
}

// TestReqQueueUnclassifiedOffersEverything covers responders that declare
// nothing (caches, crossbar fronts): the same walk, stepping instead of
// skipping, must then make exactly the oracle's offers — including to a packet
// that is accepted after an earlier one was refused.
func TestReqQueueUnclassifiedOffersEverything(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		a, b, _ := runDifferential(t, seed, false, false)
		if a != b {
			t.Fatalf("seed %d: ReqQueue made %d offers to an unclassified responder, the oracle %d", seed, b, a)
		}
	}
}

// TestReqQueueClassifiedLinkUnderChecker runs the differential with the
// protocol checker interposed: it must leave the declaration in place and see
// no packet re-offered before its retry.
func TestReqQueueClassifiedLinkUnderChecker(t *testing.T) {
	var offersRef, offersNew int
	for seed := int64(1); seed <= 30; seed++ {
		a, b, _ := runDifferential(t, seed, true, true)
		offersRef += a
		offersNew += b
	}
	if offersNew >= offersRef {
		t.Fatalf("checked link: ReqQueue made %d offers, the offer-everything walk %d — declaration lost?", offersNew, offersRef)
	}
}

// TestReqQueueLaterPacketAcceptedAfterRefusal pins the cache case directly:
// an unclassified responder refuses a miss and accepts the hit queued behind
// it, in the same drain, and again after each retry.
func TestReqQueueLaterPacketAcceptedAfterRefusal(t *testing.T) {
	w := newDiffWorld(diffSetup{capacity: []int{1}})
	mk := func(id uint64, hit bool) *Packet {
		p := &Packet{ID: id, Cmd: ReadReq, Size: 64}
		if hit {
			p.RequestorID = 1
		}
		return p
	}
	w.rq.Schedule(mk(1, false), 10) // takes the only slot
	w.rq.Schedule(mk(2, false), 10) // refused
	w.rq.Schedule(mk(3, true), 10)  // accepted behind it
	w.rq.Schedule(mk(4, false), 10) // refused
	w.q.RunUntil(10)
	if got := fmt.Sprint(w.resp.accepted); got != "[1@10 3@10]" {
		t.Fatalf("accepted %s, want the hit behind the refused miss accepted in the same drain", got)
	}
	if w.resp.offers != 4 || !w.rq.isBlocked() {
		t.Fatalf("offers %d blocked %v, want every ready packet offered and the queue blocked", w.resp.offers, w.rq.isBlocked())
	}
	w.rq.Schedule(mk(5, true), 10) // arrives while blocked: waits for the retry
	w.q.RunUntil(20)
	if len(w.resp.accepted) != 2 {
		t.Fatalf("a packet arriving at a blocked queue was sent before the retry: %v", w.resp.accepted)
	}
	w.resp.port.SendRetryReq() // nothing freed: 2 and 4 refused again, 5 accepted
	if got := fmt.Sprint(w.resp.accepted); got != "[1@10 3@10 5@20]" {
		t.Fatalf("accepted %s after the retry", got)
	}
	if w.resp.offers != 7 {
		t.Fatalf("offers %d, want 7: both parked misses offered again and the hit behind them", w.resp.offers)
	}
	w.resp.free(0)
	w.resp.free(0)
	if w.rq.Len() != 0 || w.rq.isBlocked() {
		t.Fatalf("queue left with %d packets, blocked %v", w.rq.Len(), w.rq.isBlocked())
	}
}

// echoResponder records every offer; the first request it is offered it
// answers by scheduling another into the sender's queue for the same tick,
// and with refuseFirst it also refuses that first offer and signals a retry
// later.
type echoResponder struct {
	q           *sim.EventQueue
	port        *ResponsePort
	rq          *ReqQueue
	echo        *Packet
	refuseFirst bool
	offered     []uint64
}

func (r *echoResponder) RecvTimingReq(pkt *Packet) bool {
	r.offered = append(r.offered, pkt.Addr)
	if e := r.echo; e != nil {
		r.echo = nil
		r.rq.Schedule(e, r.q.Now())
		if r.refuseFirst {
			r.q.ScheduleFunc("retry", r.q.Now()+10, r.port.SendRetryReq)
			return false
		}
	}
	return true
}

func (r *echoResponder) RecvRespRetry() {}

// TestReqQueueSameTickReschedule: a request scheduled for now by an event that
// orders after the queue's drain wakes the drain as a same-tick child, so a
// request the responder schedules from inside the offer carries the drain's
// lower stamp and sorts ahead of the one being offered. Each must still be
// offered in that order and accepted exactly once, whether the first offer is
// accepted or refused and parked.
func TestReqQueueSameTickReschedule(t *testing.T) {
	for _, tc := range []struct {
		refuseFirst bool
		want        string
	}{
		{false, "[1 2]"},
		{true, "[1 2 1]"},
	} {
		q := sim.NewEventQueue()
		owner := &queueOwner{}
		reqP := NewRequestPort("sender", owner)
		resp := &echoResponder{q: q, refuseFirst: tc.refuseFirst}
		resp.port = NewResponsePort("echo", resp)
		BindUnchecked(reqP, resp.port)
		rq := NewReqQueue("sender", q, reqP)
		owner.rq, resp.rq = rq, rq
		resp.echo = &Packet{ID: 2, Cmd: ReadReq, Addr: 2, Size: 64}
		first := &Packet{ID: 1, Cmd: ReadReq, Addr: 1, Size: 64}
		q.Schedule(sim.NewEventPri("late-sender", sim.PriDefault+1, func() {
			rq.Schedule(first, q.Now())
		}), 100)
		q.Run()
		if got := fmt.Sprint(resp.offered); got != tc.want {
			t.Fatalf("refuseFirst=%v: offered %s, want %s", tc.refuseFirst, got, tc.want)
		}
		if !rq.Empty() || rq.isBlocked() {
			t.Fatalf("refuseFirst=%v: %d requests left queued, blocked %v", tc.refuseFirst, rq.Len(), rq.isBlocked())
		}
	}
}

// TestInterposeWithdrawsAdmissionClasses: a tap may change what is accepted
// and must see every offer, so the link goes back to offering everything.
func TestInterposeWithdrawsAdmissionClasses(t *testing.T) {
	w := newDiffWorld(diffSetup{declare: true, capacity: []int{1}})
	if n, f := w.resp.port.AdmissionClasses(); n != 1 || f == nil {
		t.Fatalf("declaration not readable: %d %v", n, f != nil)
	}
	Interpose(w.resp.port.Peer(), passTap{})
	if n, f := w.resp.port.AdmissionClasses(); n != 0 || f != nil {
		t.Fatal("Interpose left the admission-class declaration in place")
	}
	for id := uint64(1); id <= 4; id++ {
		w.rq.Schedule(&Packet{ID: id, Cmd: ReadReq, Size: 64}, 10)
	}
	w.q.RunUntil(10)
	if w.resp.offers != 4 {
		t.Fatalf("offers %d through a tap, want all 4 ready packets offered", w.resp.offers)
	}
}

type passTap struct{}

func (passTap) TapReq(*Packet) TapAction  { return TapPass }
func (passTap) TapResp(*Packet) TapAction { return TapPass }

// TestReqQueueParkedRoundTripAllocs: in steady state a packet that is refused,
// parked, retried and accepted costs no allocation.
func TestReqQueueParkedRoundTripAllocs(t *testing.T) {
	w := newDiffWorld(diffSetup{declare: true, capacity: []int{1, 1}})
	w.resp.accepted = nil
	pkts := make([]*Packet, 8)
	for i := range pkts {
		pkts[i] = &Packet{ID: uint64(i + 1), Cmd: ReadReq, Addr: uint64(i % 2), Size: 64}
	}
	round := func() {
		// Two are accepted, six parked; each freed slot lets one more through.
		for _, p := range pkts {
			w.rq.Schedule(p, w.q.Now())
		}
		w.q.Run()
		for w.rq.Len() > 0 {
			w.resp.free(0)
		}
		w.resp.free(0)
		w.resp.free(0)
		w.resp.accepted = w.resp.accepted[:0]
	}
	round() // grow the lists and the accept log
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("parked round trip allocates %.1f objects/op, want 0", allocs)
	}
}
