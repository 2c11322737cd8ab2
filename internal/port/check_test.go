package port

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"gem5rtl/internal/ckpt"
)

// testRequestor is a scriptable requestor endpoint.
type testRequestor struct {
	acceptResp bool
	resps      []*Packet
	retries    int
}

func (r *testRequestor) RecvTimingResp(pkt *Packet) bool {
	if !r.acceptResp {
		return false
	}
	r.resps = append(r.resps, pkt)
	return true
}

func (r *testRequestor) RecvReqRetry() { r.retries++ }

// testResponder is a scriptable responder endpoint.
type testResponder struct {
	accept      bool
	reqs        []*Packet
	respRetries int
}

func (r *testResponder) RecvTimingReq(pkt *Packet) bool {
	if !r.accept {
		return false
	}
	r.reqs = append(r.reqs, pkt)
	return true
}

func (r *testResponder) RecvRespRetry() { r.respRetries++ }

func checkedLink(reqOwner Requestor, respOwner Responder) (*RequestPort, *ResponsePort, *Checker) {
	req := NewRequestPort("test.req", reqOwner)
	resp := NewResponsePort("test.resp", respOwner)
	c := BindChecked(req, resp)
	return req, resp, c
}

func mustPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		p := recover()
		if p == nil {
			t.Fatalf("expected panic containing %q, got none", substr)
		}
		msg, ok := p.(string)
		if !ok {
			t.Fatalf("panic value %v is %T, want string", p, p)
		}
		if !strings.Contains(msg, substr) {
			t.Fatalf("panic %q does not contain %q", msg, substr)
		}
		if !strings.Contains(msg, "handshake history") {
			t.Fatalf("panic %q carries no handshake history", msg)
		}
	}()
	fn()
}

func TestCheckedCleanRequestResponse(t *testing.T) {
	rq := &testRequestor{acceptResp: true}
	rs := &testResponder{accept: true}
	req, resp, c := checkedLink(rq, rs)

	pkt := NewReadPacket(0x1000, 64)
	if !req.SendTimingReq(pkt) {
		t.Fatal("request refused")
	}
	if c.Outstanding() != 1 {
		t.Fatalf("Outstanding = %d, want 1", c.Outstanding())
	}
	pkt.MakeResponse()
	if !resp.SendTimingResp(pkt) {
		t.Fatal("response refused")
	}
	if err := c.CheckQuiescent(); err != nil {
		t.Fatalf("quiescent link reports: %v", err)
	}
	if len(rq.resps) != 1 || len(rs.reqs) != 1 {
		t.Fatal("packets did not reach the endpoints")
	}
}

func TestCheckedQuiescentReportsUnanswered(t *testing.T) {
	rq := &testRequestor{acceptResp: true}
	rs := &testResponder{accept: true}
	req, _, c := checkedLink(rq, rs)
	req.SendTimingReq(NewReadPacket(0x40, 64))
	err := c.CheckQuiescent()
	if err == nil || !strings.Contains(err.Error(), "unanswered") {
		t.Fatalf("err = %v, want unanswered-request error", err)
	}
}

// Resending the same refused packet before RecvReqRetry is the core request
// protocol violation.
func TestCheckedResendBeforeRetryPanics(t *testing.T) {
	rq := &testRequestor{}
	rs := &testResponder{accept: false}
	req, _, _ := checkedLink(rq, rs)
	pkt := NewReadPacket(0x80, 64)
	if req.SendTimingReq(pkt) {
		t.Fatal("refusing responder accepted")
	}
	mustPanic(t, "resent before RecvReqRetry", func() {
		req.SendTimingReq(pkt)
	})
}

// Two different packets may both be refused before the retry (ReqQueue keeps
// trying later ready packets: no head-of-line blocking), and one retry wakes
// them all — a full legal double-refusal round trip.
func TestCheckedDoubleRefusalThenRetry(t *testing.T) {
	rq := &testRequestor{acceptResp: true}
	rs := &testResponder{accept: false}
	req, resp, c := checkedLink(rq, rs)

	a, b := NewReadPacket(0x100, 64), NewReadPacket(0x140, 64)
	if req.SendTimingReq(a) || req.SendTimingReq(b) {
		t.Fatal("refusing responder accepted")
	}
	rs.accept = true
	resp.SendRetryReq()
	if rq.retries != 1 {
		t.Fatalf("retries = %d, want 1", rq.retries)
	}
	if !req.SendTimingReq(a) || !req.SendTimingReq(b) {
		t.Fatal("resend after retry refused")
	}
	for _, pkt := range []*Packet{a, b} {
		pkt.MakeResponse()
		if !resp.SendTimingResp(pkt) {
			t.Fatal("response refused")
		}
	}
	if err := c.CheckQuiescent(); err != nil {
		t.Fatalf("after full round trip: %v", err)
	}
}

// A retry fired with nobody waiting is a responder bug: the port-level gate
// (needReqRetry) normally prevents it, so the test drives the owner directly,
// modelling a responder that bypasses its own bookkeeping.
func TestCheckedRetryWithNoWaiterPanics(t *testing.T) {
	rq := &testRequestor{}
	rs := &testResponder{accept: true}
	req, _, _ := checkedLink(rq, rs)
	mustPanic(t, "RecvReqRetry with no refused request waiting", func() {
		req.owner.RecvReqRetry()
	})
}

func TestCheckedRespRetryWithNoWaiterPanics(t *testing.T) {
	rq := &testRequestor{}
	rs := &testResponder{accept: true}
	_, resp, _ := checkedLink(rq, rs)
	mustPanic(t, "RecvRespRetry with no refused response waiting", func() {
		resp.owner.RecvRespRetry()
	})
}

// A refused response followed by SendRetryResp and a resend is the legal
// response-side slow path.
func TestCheckedResponseRefusedThenRetried(t *testing.T) {
	rq := &testRequestor{acceptResp: false}
	rs := &testResponder{accept: true}
	req, resp, c := checkedLink(rq, rs)

	pkt := NewReadPacket(0x200, 64)
	if !req.SendTimingReq(pkt) {
		t.Fatal("request refused")
	}
	pkt.MakeResponse()
	if resp.SendTimingResp(pkt) {
		t.Fatal("refusing requestor accepted")
	}
	rq.acceptResp = true
	req.SendRetryResp()
	if rs.respRetries != 1 {
		t.Fatalf("respRetries = %d, want 1", rs.respRetries)
	}
	if !resp.SendTimingResp(pkt) {
		t.Fatal("resend after retry refused")
	}
	if err := c.CheckQuiescent(); err != nil {
		t.Fatalf("after retried response: %v", err)
	}
}

// Responses are strictly ordered (RespQueue head-of-line blocks): delivering
// any response while one is refused violates the contract.
func TestCheckedResponseWhileBlockedPanics(t *testing.T) {
	rq := &testRequestor{acceptResp: false}
	rs := &testResponder{accept: true}
	req, resp, _ := checkedLink(rq, rs)

	a, b := NewReadPacket(0x240, 64), NewReadPacket(0x280, 64)
	req.SendTimingReq(a)
	req.SendTimingReq(b)
	a.MakeResponse()
	if resp.SendTimingResp(a) {
		t.Fatal("refusing requestor accepted")
	}
	b.MakeResponse()
	mustPanic(t, "delivered before RecvRespRetry", func() {
		resp.SendTimingResp(b)
	})
}

func TestCheckedUnknownResponsePanics(t *testing.T) {
	rq := &testRequestor{acceptResp: true}
	rs := &testResponder{accept: true}
	_, resp, _ := checkedLink(rq, rs)
	ghost := NewReadPacket(0x300, 64)
	ghost.MakeResponse()
	mustPanic(t, "matches no outstanding request", func() {
		resp.SendTimingResp(ghost)
	})
}

func TestCheckedDuplicateRequestIDPanics(t *testing.T) {
	rq := &testRequestor{acceptResp: true}
	rs := &testResponder{accept: true}
	req, _, _ := checkedLink(rq, rs)
	pkt := NewReadPacket(0x340, 64)
	if !req.SendTimingReq(pkt) {
		t.Fatal("request refused")
	}
	mustPanic(t, "duplicate in-flight request", func() {
		req.SendTimingReq(pkt)
	})
}

// After a checkpoint restore, traffic belonging to pre-checkpoint packets is
// adopted: the fresh checker never saw the request (or the refusal behind a
// restored retry flag), so rejecting it would be a false positive. Packets
// minted after the restore, and links whose port was not restored, stay
// fully checked.
func TestCheckedRestoreAdoptsPreCheckpointTraffic(t *testing.T) {
	rq := &testRequestor{acceptResp: true}
	rs := &testResponder{accept: true}
	req, resp, c := checkedLink(rq, rs)
	_, fresh, _ := checkedLink(&testRequestor{acceptResp: true}, &testResponder{accept: true})

	// A packet "from the checkpointed process", and the link's restored
	// retry flags.
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	old := NewReadPacket(0x400, 64)
	CheckpointPacket(ckpt.Saving(w), &old)
	if err := (&ResponsePort{}).Checkpoint(ckpt.Saving(w)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := ckpt.Restoring(ckpt.NewReader(&buf))
	CheckpointPacket(r, &old)
	if err := resp.Checkpoint(r); err != nil {
		t.Fatal(err)
	}

	old.MakeResponse()
	if !resp.SendTimingResp(old) {
		t.Fatal("adopted response refused")
	}
	if len(rq.resps) != 1 {
		t.Fatal("adopted response not delivered")
	}
	// Restored retry flags fire with no recorded waiter: tolerated.
	req.owner.RecvReqRetry()
	resp.owner.RecvRespRetry()
	if rq.retries != 1 || rs.respRetries != 1 {
		t.Fatal("adopted retries not delivered")
	}
	// Post-restore packets are fully checked: an unknown response with a
	// fresh ID still violates.
	ghost := NewReadPacket(0x440, 64)
	ghost.MakeResponse()
	mustPanic(t, "matches no outstanding request", func() {
		resp.SendTimingResp(ghost)
	})
	if err := c.CheckQuiescent(); err != nil {
		t.Fatalf("adopted traffic left bookkeeping dirty: %v", err)
	}
	// A link whose port was not restored adopts no retry.
	mustPanic(t, "RecvRespRetry with no refused response waiting", func() {
		fresh.owner.RecvRespRetry()
	})
}

// A Checking choice attaches a checker exactly when it is on, BindChecked
// attaches exactly one, and CheckFromEnv follows the environment.
func TestCheckingFlagAttachesChecker(t *testing.T) {
	t.Parallel()
	req := NewRequestPort("flag.req", &testRequestor{})
	resp := NewResponsePort("flag.resp", &testResponder{accept: true})
	CheckOn.Bind(req, resp)
	if _, ok := req.owner.(*checkedRequestor); !ok {
		t.Fatal("CheckOn.Bind did not attach a checker")
	}

	req2 := NewRequestPort("flag2.req", &testRequestor{})
	resp2 := NewResponsePort("flag2.resp", &testResponder{accept: true})
	BindChecked(req2, resp2)
	cr, ok := req2.owner.(*checkedRequestor)
	if !ok {
		t.Fatal("BindChecked did not attach a checker")
	}
	if _, double := cr.inner.(*checkedRequestor); double {
		t.Fatal("BindChecked attached two checkers")
	}

	req3 := NewRequestPort("flag3.req", &testRequestor{})
	resp3 := NewResponsePort("flag3.resp", &testResponder{accept: true})
	CheckOff.Bind(req3, resp3)
	if _, ok := req3.owner.(*checkedRequestor); ok {
		t.Fatal("CheckOff.Bind attached a checker")
	}

	if want := os.Getenv(CheckPortsEnv) != ""; CheckFromEnv.On() != want {
		t.Fatalf("CheckFromEnv.On() = %v with %s=%q", !want, CheckPortsEnv, os.Getenv(CheckPortsEnv))
	}
}
