package port

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gem5rtl/internal/ckpt"
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

func (rq *refReqQueue) SaveState(w *ckpt.Writer) error {
	w.Section("port.reqq")
	w.Bool(rq.blocked)
	sim.SaveEvent(w, rq.ev)
	saveQueuedPkts(w, rq.pending)
	return w.Err()
}

func (rq *refReqQueue) RestoreState(r *ckpt.Reader) error {
	r.Section("port.reqq")
	rq.blocked = r.Bool()
	rq.q.RestoreEvent(r, rq.ev)
	rq.pending = loadQueuedPkts(r, rq.pending[:0])
	return r.Err()
}

func (rq *ReqQueue) isBlocked() bool { return rq.blocked }

// reqQueue is what the differential test drives: ReqQueue or its oracle.
type reqQueue interface {
	Schedule(*Packet, sim.Tick)
	schedule(*Packet, sim.Tick, sim.Stamp)
	RecvReqRetry()
	Len() int
	isBlocked() bool
	SaveState(*ckpt.Writer) error
	RestoreState(*ckpt.Reader) error
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

// diffWorld is one queue under test with its own event queue and responder.
type diffWorld struct {
	q    *sim.EventQueue
	rq   reqQueue
	resp *classResponder
	// steps logs the queue's visible state after every scripted action.
	steps []string
	// saves holds the checkpoints taken, with the script position and the
	// responder occupancy a restored world continues from.
	saves []diffSave
	// parkedSaves counts the checkpoints taken with packets parked.
	parkedSaves int
}

type diffSave struct {
	bytes []byte
	next  int // index of the first action after the save
	used  []int
}

type diffSetup struct {
	ref      bool // the oracle instead of ReqQueue
	declare  bool // the responder declares its admission classes
	checked  bool // protocol checker on the link
	capacity []int
}

func newDiffWorld(s diffSetup) *diffWorld {
	w := &diffWorld{q: sim.NewEventQueue()}
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

// play schedules the actions on the world's event queue, in script order.
func (w *diffWorld) play(script []diffAction) {
	for i := range script {
		i, a := i, &script[i]
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
			if a.save {
				w.saves = append(w.saves, diffSave{w.save(), i + 1, append([]int(nil), w.resp.used...)})
			}
			w.steps = append(w.steps, fmt.Sprintf("t=%d blocked=%v retry=%v len=%d accepted=%d",
				w.q.Now(), w.rq.isBlocked(), w.resp.port.WaitingForReqRetry(), w.rq.Len(), len(w.resp.accepted)))
		})
	}
}

func (w *diffWorld) save() []byte {
	if rq, ok := w.rq.(*ReqQueue); ok && rq.parked > 0 {
		w.parkedSaves++
	}
	var buf bytes.Buffer
	cw := ckpt.NewWriter(&buf)
	if err := w.rq.SaveState(cw); err != nil {
		panic(err)
	}
	if err := w.resp.port.SaveState(cw); err != nil {
		panic(err)
	}
	if err := cw.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// restored builds a fresh world holding a saved queue and the responder
// occupancy of the world it was saved from.
func restored(s diffSetup, from diffSave) *diffWorld {
	n := newDiffWorld(s)
	copy(n.resp.used, from.used)
	r := ckpt.NewReader(bytes.NewReader(from.bytes))
	if err := n.rq.RestoreState(r); err != nil {
		panic(err)
	}
	if err := n.resp.port.RestoreState(r); err != nil {
		panic(err)
	}
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

// runDifferential plays one seeded script on ReqQueue and on the oracle, and
// from every checkpoint taken on the way again on both, restored.
func runDifferential(t *testing.T, seed int64, declare, checked bool) (offersRef, offersNew, parkedSaves int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	classes := 1 + rng.Intn(4)
	capacity := make([]int, classes)
	for c := range capacity {
		capacity[c] = 1 + rng.Intn(3)
	}
	script := diffScript(rng, classes, !declare)

	refSetup := diffSetup{ref: true, capacity: capacity}
	newSetup := diffSetup{declare: declare, checked: checked, capacity: capacity}
	ref, nw := newDiffWorld(refSetup), newDiffWorld(newSetup)

	ref.play(script)
	nw.play(script)
	ref.q.Run()
	nw.q.Run()

	compare := func(what string, a, b []string) {
		t.Helper()
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("seed %d: %s differ at %d: oracle %q, ReqQueue %q", seed, what, i, a[i], b[i])
			}
		}
		if len(a) != len(b) {
			t.Fatalf("seed %d: %s: oracle has %d, ReqQueue %d", seed, what, len(a), len(b))
		}
	}
	accepts := func(w *diffWorld) []string {
		out := make([]string, len(w.resp.accepted))
		for i, a := range w.resp.accepted {
			out[i] = a.String()
		}
		return out
	}
	compare("accept sequences", accepts(ref), accepts(nw))
	compare("visible states", ref.steps, nw.steps)
	if ref.rq.Len() != 0 || nw.rq.Len() != 0 {
		t.Fatalf("seed %d: queues not drained: oracle %d, ReqQueue %d", seed, ref.rq.Len(), nw.rq.Len())
	}
	if len(ref.saves) != len(nw.saves) {
		t.Fatalf("seed %d: %d vs %d checkpoints", seed, len(ref.saves), len(nw.saves))
	}
	for i := range ref.saves {
		if !bytes.Equal(ref.saves[i].bytes, nw.saves[i].bytes) {
			t.Fatalf("seed %d: checkpoint %d differs between oracle and ReqQueue", seed, i)
		}
		rest := script[ref.saves[i].next:]
		rref, rnew := restored(refSetup, ref.saves[i]), restored(newSetup, nw.saves[i])
		rref.play(rest)
		rnew.play(rest)
		rref.q.Run()
		rnew.q.Run()
		compare(fmt.Sprintf("accept sequences after restore %d", i), accepts(rref), accepts(rnew))
		compare(fmt.Sprintf("visible states after restore %d", i), rref.steps, rnew.steps)
	}
	return ref.resp.offers, nw.resp.offers, nw.parkedSaves
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
