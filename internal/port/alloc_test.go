package port

import (
	"testing"

	"gem5rtl/internal/sim"
)

// allocSink accepts every response and recycles the packet, modelling a
// well-behaved pooled requestor.
type allocSink struct {
	got int
}

func (s *allocSink) RecvTimingResp(pkt *Packet) bool {
	s.got++
	pkt.Release()
	return true
}

func (s *allocSink) RecvReqRetry() {}

// TestPacketPoolSteadyStateAllocs pins the packet fast path: once the pool
// is warm, a Get / AllocateData / Release cycle must not allocate at all.
// This is the allocation-regression guard for the packet path.
func TestPacketPoolSteadyStateAllocs(t *testing.T) {
	var pool PacketPool
	// Warm the pool so capacity exists before measuring.
	warm := pool.GetRead(0x1000, 64)
	warm.MakeResponse()
	warm.AllocateData()
	warm.Release()

	allocs := testing.AllocsPerRun(1000, func() {
		pkt := pool.GetRead(0x1000, 64)
		pkt.MakeResponse()
		pkt.AllocateData()
		pkt.Release()
	})
	if allocs != 0 {
		t.Fatalf("packet pool steady state allocates %.1f objects/op, want 0", allocs)
	}
}

// TestRespQueueSteadyStateAllocs drives a full response delivery — pooled
// packet scheduled on a RespQueue, drained through a bound port pair by the
// event queue — and requires the steady state to be allocation-free. This
// covers the send/receive machinery end to end: pool recycling, the
// head-indexed RespQueue ring, and event-kernel dispatch.
func TestRespQueueSteadyStateAllocs(t *testing.T) {
	q := sim.NewEventQueue()
	sink := &allocSink{}
	reqP := NewRequestPort("drv", sink)
	respP := NewResponsePort("dev", nil)
	// Unchecked: the rig schedules responses no request was ever sent for.
	BindUnchecked(reqP, respP)
	rq := NewRespQueue("dev", q, respP)

	var pool PacketPool
	deliver := func() {
		pkt := pool.GetRead(0x2000, 64)
		pkt.MakeResponse()
		pkt.AllocateData()
		rq.Schedule(pkt, q.Now()+5*sim.Nanosecond)
		q.Run()
	}
	deliver() // warm pool, queue ring and event-kernel structures

	allocs := testing.AllocsPerRun(1000, deliver)
	if allocs != 0 {
		t.Fatalf("response delivery steady state allocates %.1f objects/op, want 0", allocs)
	}
	if sink.got == 0 {
		t.Fatal("no responses delivered")
	}
}

// TestDoubleReleasePanics: only a PacketPool's packets are Pooled, Release
// on any other is a no-op, and releasing a pooled packet twice panics.
func TestDoubleReleasePanics(t *testing.T) {
	var pool PacketPool
	loose := NewWritePacket(0x40, []byte{1})
	if loose.Pooled() {
		t.Fatal("a loose packet reports Pooled")
	}
	loose.Release()
	loose.Release()
	pkt := pool.Get(WriteReq, 0x40, 1)
	if !pkt.Pooled() {
		t.Fatal("a pool's packet does not report Pooled")
	}
	pkt.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a second Release of a pooled packet did not panic")
		}
	}()
	pkt.Release()
}
