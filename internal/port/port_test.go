package port

import (
	"testing"
	"testing/quick"

	"gem5rtl/internal/sim"
)

// fakeResponder accepts up to capacity outstanding requests, responding after
// a fixed latency through a RespQueue.
type fakeResponder struct {
	q        *sim.EventQueue
	port     *ResponsePort
	rq       *RespQueue
	capacity int
	inflight int
	latency  sim.Tick
	received int
}

func newFakeResponder(q *sim.EventQueue, capacity int, latency sim.Tick) *fakeResponder {
	r := &fakeResponder{q: q, capacity: capacity, latency: latency}
	r.port = NewResponsePort("resp", r)
	r.rq = NewRespQueue("resp", q, r.port)
	return r
}

func (r *fakeResponder) RecvTimingReq(pkt *Packet) bool {
	if r.inflight >= r.capacity {
		return false
	}
	r.inflight++
	r.received++
	pkt.MakeResponse()
	if pkt.Cmd == ReadResp {
		pkt.AllocateData()
	}
	r.rq.Schedule(pkt, r.q.Now()+r.latency)
	r.q.ScheduleFunc("free", r.q.Now()+r.latency, func() {
		r.inflight--
		r.port.SendRetryReq()
	})
	return true
}

func (r *fakeResponder) RecvRespRetry() { r.rq.RecvRespRetry() }

// fakeRequestor issues a fixed number of reads as fast as allowed.
type fakeRequestor struct {
	q         *sim.EventQueue
	port      *RequestPort
	toSend    int
	sent      int
	responses int
	lastResp  sim.Tick
	stalled   bool
	refuseOne bool // refuse first response to exercise resp-retry
	refused   bool
}

func newFakeRequestor(q *sim.EventQueue, n int) *fakeRequestor {
	r := &fakeRequestor{q: q, toSend: n}
	r.port = NewRequestPort("req", r)
	return r
}

func (r *fakeRequestor) pump() {
	for r.sent < r.toSend && !r.stalled {
		pkt := NewReadPacket(uint64(r.sent)*64, 64)
		pkt.ReqTick = r.q.Now()
		if !r.port.SendTimingReq(pkt) {
			r.stalled = true
			return
		}
		r.sent++
	}
}

func (r *fakeRequestor) RecvTimingResp(pkt *Packet) bool {
	if r.refuseOne && !r.refused {
		r.refused = true
		r.q.ScheduleFunc("acceptLater", r.q.Now()+100, func() { r.port.SendRetryResp() })
		return false
	}
	r.responses++
	r.lastResp = r.q.Now()
	return true
}

func (r *fakeRequestor) RecvReqRetry() {
	r.stalled = false
	r.pump()
}

func TestTimingRoundTrip(t *testing.T) {
	q := sim.NewEventQueue()
	resp := newFakeResponder(q, 4, 100)
	req := newFakeRequestor(q, 1)
	Bind(req.port, resp.port)
	req.pump()
	q.Run()
	if req.responses != 1 {
		t.Fatalf("responses = %d, want 1", req.responses)
	}
	if req.lastResp != 100 {
		t.Fatalf("response at %d, want 100", req.lastResp)
	}
}

func TestBackPressureAndRetry(t *testing.T) {
	q := sim.NewEventQueue()
	resp := newFakeResponder(q, 2, 100)
	req := newFakeRequestor(q, 10)
	Bind(req.port, resp.port)
	req.pump()
	if req.sent != 2 {
		t.Fatalf("sent %d before stall, want 2 (capacity)", req.sent)
	}
	q.Run()
	if req.responses != 10 {
		t.Fatalf("responses = %d, want 10", req.responses)
	}
	// 10 requests, 2 at a time, 100 ticks each -> last completes at 500.
	if req.lastResp != 500 {
		t.Fatalf("last response at %d, want 500", req.lastResp)
	}
}

func TestRespRetry(t *testing.T) {
	q := sim.NewEventQueue()
	resp := newFakeResponder(q, 4, 50)
	req := newFakeRequestor(q, 3)
	req.refuseOne = true
	Bind(req.port, resp.port)
	req.pump()
	q.Run()
	if req.responses != 3 {
		t.Fatalf("responses = %d, want 3 (one was refused then retried)", req.responses)
	}
}

func TestMakeResponse(t *testing.T) {
	p := NewReadPacket(0x1000, 64)
	if p.IsResponse() || !p.NeedsResponse() {
		t.Fatal("fresh read packet misclassified")
	}
	p.MakeResponse()
	if p.Cmd != ReadResp || !p.IsResponse() {
		t.Fatalf("MakeResponse gave %v", p.Cmd)
	}
	w := NewWritePacket(0x2000, make([]byte, 8))
	w.MakeResponse()
	if w.Cmd != WriteResp {
		t.Fatalf("write MakeResponse gave %v", w.Cmd)
	}
}

func TestMakeResponseOnResponsePanics(t *testing.T) {
	p := NewReadPacket(0, 8)
	p.MakeResponse()
	defer func() {
		if recover() == nil {
			t.Fatal("MakeResponse on response did not panic")
		}
	}()
	p.MakeResponse()
}

func TestSenderStateStack(t *testing.T) {
	p := NewReadPacket(0, 8)
	p.PushSenderState("a")
	p.PushSenderState(42)
	if p.SenderStateDepth() != 2 {
		t.Fatalf("depth = %d", p.SenderStateDepth())
	}
	if v := p.PopSenderState(); v != 42 {
		t.Fatalf("pop = %v, want 42", v)
	}
	if v := p.PopSenderState(); v != "a" {
		t.Fatalf("pop = %v, want a", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("pop on empty stack did not panic")
		}
	}()
	p.PopSenderState()
}

func TestBlockAddr(t *testing.T) {
	if BlockAddr(0x12345, 64) != 0x12340 {
		t.Fatalf("BlockAddr wrong: %x", BlockAddr(0x12345, 64))
	}
	if BlockAddr(0x1000, 64) != 0x1000 {
		t.Fatal("aligned address changed")
	}
}

func TestCmdClassification(t *testing.T) {
	cases := []struct {
		cmd                      Cmd
		read, write, resp, needs bool
	}{
		{ReadReq, true, false, false, true},
		{ReadResp, true, false, true, false},
		{WriteReq, false, true, false, true},
		{WriteResp, false, true, true, false},
		{WritebackDirty, false, true, false, false},
		{PrefetchReq, true, false, false, true},
	}
	for _, c := range cases {
		if c.cmd.IsRead() != c.read || c.cmd.IsWrite() != c.write ||
			c.cmd.IsResponse() != c.resp || c.cmd.NeedsResponse() != c.needs {
			t.Fatalf("%v misclassified", c.cmd)
		}
	}
}

func TestRespQueueOrdering(t *testing.T) {
	q := sim.NewEventQueue()
	resp := newFakeResponder(q, 100, 0)
	req := newFakeRequestor(q, 1)
	// Unchecked: the test fabricates responses straight into the queue, which
	// a protocol checker would rightly flag as answering nothing.
	BindUnchecked(req.port, resp.port)
	var got []uint64
	// Deliver directly through the queue in shuffled readiness order.
	for _, when := range []sim.Tick{300, 100, 200, 100} {
		p := NewReadPacket(uint64(when), 8)
		p.MakeResponse()
		resp.rq.Schedule(p, when)
	}
	// Capture deliveries via the requestor.
	reqRecv := func(pkt *Packet) { got = append(got, pkt.Addr) }
	_ = reqRecv
	q.Run()
	if !resp.rq.Empty() {
		t.Fatal("queue not drained")
	}
}

// echoRequestor answers the first response it receives by scheduling another
// into the sender's queue for the same tick, and records every delivery.
type echoRequestor struct {
	q    *sim.EventQueue
	rq   *RespQueue
	echo *Packet
	got  []uint64
}

func (r *echoRequestor) RecvTimingResp(pkt *Packet) bool {
	r.got = append(r.got, pkt.Addr)
	if e := r.echo; e != nil {
		r.echo = nil
		r.rq.Schedule(e, r.q.Now())
	}
	return true
}

func (r *echoRequestor) RecvReqRetry() {}

// TestRespQueueZeroLatencyReschedule: a response scheduled for now by an
// event that orders after the queue's drain wakes the drain as a same-tick
// child, so a response the receiver schedules from inside the delivery
// carries the drain's lower stamp and sorts ahead of the entry being
// delivered. Each must still be delivered exactly once, in that order.
func TestRespQueueZeroLatencyReschedule(t *testing.T) {
	q := sim.NewEventQueue()
	resp := newFakeResponder(q, 1, 0)
	req := &echoRequestor{q: q, rq: resp.rq}
	req.echo = NewReadPacket(2, 8)
	req.echo.MakeResponse()
	port := NewRequestPort("echo", req)
	BindUnchecked(port, resp.port)
	first := NewReadPacket(1, 8)
	first.MakeResponse()
	q.Schedule(sim.NewEventPri("late-sender", sim.PriDefault+1, func() {
		resp.rq.Schedule(first, q.Now())
	}), 100)
	q.Run()
	if len(req.got) != 2 || req.got[0] != 1 || req.got[1] != 2 {
		t.Fatalf("delivered %v, want [1 2]", req.got)
	}
	if !resp.rq.Empty() {
		t.Fatalf("%d responses left queued", resp.rq.Len())
	}
}

// Property: with any responder capacity and request count, every request
// eventually gets exactly one response, and packet conservation holds.
func TestQuickConservation(t *testing.T) {
	f := func(cap8, n8 uint8) bool {
		capacity := int(cap8%8) + 1
		n := int(n8 % 64)
		q := sim.NewEventQueue()
		resp := newFakeResponder(q, capacity, 10)
		req := newFakeRequestor(q, n)
		Bind(req.port, resp.port)
		req.pump()
		q.Run()
		return req.responses == n && resp.received == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
