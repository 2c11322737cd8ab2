package port

import (
	"bytes"
	"reflect"
	"testing"

	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/conform"
	"gem5rtl/internal/sim"
)

func TestPacketRoundTrip(t *testing.T) {
	p := NewReadPacket(0x1000, 64)
	p.ReqTick = 12345
	p.RequestorID = 3
	p.PushSenderState(uint64(42))
	p.MakeResponse()
	p.Data = []byte{9, 8, 7}

	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	CheckpointPacket(ckpt.Saving(w), &p)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var got *Packet
	r := ckpt.Restoring(ckpt.NewReader(&buf))
	CheckpointPacket(r, &got)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if !got.restored {
		t.Error("a loaded packet is not marked restored")
	}
	p.restored = true
	if !reflect.DeepEqual(got, p) {
		t.Errorf("packet round trip:\n got %#v\nwant %#v", got, p)
	}
	if s := got.PopSenderState(); s != uint64(42) {
		t.Errorf("sender state = %v", s)
	}

	// A nil-data request must come back with nil data.
	q := NewReadPacket(0x2000, 64)
	buf.Reset()
	w = ckpt.NewWriter(&buf)
	CheckpointPacket(ckpt.Saving(w), &q)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	CheckpointPacket(ckpt.Restoring(ckpt.NewReader(&buf)), &got)
	if got.Data != nil {
		t.Errorf("nil data became %v", got.Data)
	}
}

func TestPacketUnknownSenderStateFails(t *testing.T) {
	p := NewReadPacket(0, 64)
	p.PushSenderState(struct{ x int }{1})
	w := ckpt.NewWriter(&bytes.Buffer{})
	CheckpointPacket(ckpt.Saving(w), &p)
	if w.Err() == nil {
		t.Fatal("expected save failure for unregistered sender state")
	}
}

// sink accepts everything; used to bind queues for restore tests.
type sink struct{}

func (sink) RecvTimingReq(*Packet) bool  { return true }
func (sink) RecvRespRetry()              {}
func (sink) RecvTimingResp(*Packet) bool { return true }
func (sink) RecvReqRetry()               {}

func TestQueuesRoundTrip(t *testing.T) {
	build := func(q *sim.EventQueue) (*RespQueue, *ReqQueue, *ResponsePort) {
		resp := NewResponsePort("resp", sink{})
		req := NewRequestPort("req", sink{})
		Bind(req, resp)
		rq := NewRespQueue("rq", q, resp)
		tq := NewReqQueue("tq", q, req)
		return rq, tq, resp
	}

	q := sim.NewEventQueue()
	rq, tq, resp := build(q)
	pr := NewReadPacket(0x40, 64)
	pr.MakeResponse()
	pr.AllocateData()
	rq.Schedule(pr, 500)
	tq.Schedule(NewWritePacket(0x80, []byte{1, 2}), 700)
	resp.needReqRetry = true

	blob := conform.Save(t, rq, tq, resp)
	q2 := sim.NewEventQueue()
	rq2, tq2, resp2 := build(q2)
	conform.Restore(t, blob, rq2, tq2, resp2)
	if rq2.Len() != 1 || tq2.Len() != 1 {
		t.Fatalf("restored lens = %d/%d", rq2.Len(), tq2.Len())
	}
	if !resp2.WaitingForReqRetry() {
		t.Error("retry flag lost")
	}
	if q2.Pending() != 2 {
		t.Fatalf("restored pending events = %d, want 2 (both drains)", q2.Pending())
	}
	// The restored drains must deliver at the original ticks.
	q2.RunUntil(1_000)
	if !rq2.Empty() || !tq2.Empty() {
		t.Error("restored queues did not drain")
	}
	if q2.Now() != 1_000 {
		t.Errorf("now = %d", q2.Now())
	}
}
