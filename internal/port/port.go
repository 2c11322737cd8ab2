package port

import "fmt"

// Requestor is implemented by components that own a RequestPort (gem5's
// "master" side): they receive responses and retry notifications.
type Requestor interface {
	// RecvTimingResp delivers a response. Returning false asks the responder
	// to hold the response and wait for SendRetryResp.
	RecvTimingResp(pkt *Packet) bool
	// RecvReqRetry tells the requestor that a previously refused request may
	// now be resent.
	RecvReqRetry()
}

// Responder is implemented by components that own a ResponsePort (gem5's
// "slave" side): they receive requests and response-retry notifications.
type Responder interface {
	// RecvTimingReq delivers a request. Returning false refuses it; the
	// responder must later call SendRetryReq on its port.
	RecvTimingReq(pkt *Packet) bool
	// RecvRespRetry tells the responder a previously refused response may now
	// be resent.
	RecvRespRetry()
}

// Functional is implemented by responders that support debug/functional
// accesses which complete immediately with no timing (used for loading
// program images and traces).
type Functional interface {
	FunctionalAccess(pkt *Packet)
}

// RequestPort is the requestor's endpoint of a point-to-point link.
type RequestPort struct {
	name  string
	owner Requestor
	peer  *ResponsePort
}

// ResponsePort is the responder's endpoint of a point-to-point link.
type ResponsePort struct {
	name  string
	owner Responder
	peer  *RequestPort

	// needReqRetry is set when a request was refused, so the responder knows
	// someone is waiting. Mirrors gem5's internal retry bookkeeping.
	needReqRetry bool
	// needRespRetry is the symmetric flag on the requestor side.
	needRespRetry bool

	// classes and classOf are the owner's admission-class declaration (see
	// DeclareAdmissionClasses); classOf is nil when it made none.
	classes int
	classOf func(*Packet) int
}

// NewRequestPort creates an unbound request port owned by r.
func NewRequestPort(name string, r Requestor) *RequestPort {
	return &RequestPort{name: name, owner: r}
}

// NewResponsePort creates an unbound response port owned by r.
func NewResponsePort(name string, r Responder) *ResponsePort {
	return &ResponsePort{name: name, owner: r}
}

// Bind connects a request port to a response port. Both must be unbound.
// When the package-level Checking flag is set, a protocol Checker is
// interposed on the link (see BindChecked).
func Bind(req *RequestPort, resp *ResponsePort) {
	bindRaw(req, resp)
	if Checking {
		attachChecker(req, resp)
	}
}

// bindRaw links the ports without any checker interposition.
func bindRaw(req *RequestPort, resp *ResponsePort) {
	if req.peer != nil || resp.peer != nil {
		panic(fmt.Sprintf("port: rebinding %s <-> %s", req.name, resp.name))
	}
	req.peer = resp
	resp.peer = req
}

// Name returns the port name.
func (p *RequestPort) Name() string { return p.name }

// Bound reports whether the port has a peer.
func (p *RequestPort) Bound() bool { return p.peer != nil }

// Peer returns the connected response port (nil if unbound).
func (p *RequestPort) Peer() *ResponsePort { return p.peer }

// SendTimingReq attempts to deliver a request to the peer responder. If it
// returns false the requestor must not resend until RecvReqRetry fires.
func (p *RequestPort) SendTimingReq(pkt *Packet) bool {
	if p.peer == nil {
		panic("port: SendTimingReq on unbound port " + p.name)
	}
	if pkt.IsResponse() {
		panic("port: SendTimingReq with response packet " + pkt.Cmd.String())
	}
	ok := p.peer.owner.RecvTimingReq(pkt)
	if !ok {
		p.peer.needReqRetry = true
	}
	return ok
}

// SendRetryResp tells the peer responder that the requestor can now accept
// the response it previously refused.
func (p *RequestPort) SendRetryResp() {
	if p.peer == nil {
		panic("port: SendRetryResp on unbound port " + p.name)
	}
	if p.peer.needRespRetry {
		p.peer.needRespRetry = false
		p.peer.owner.RecvRespRetry()
	}
}

// SendFunctional performs an immediate, untimed access through the link.
func (p *RequestPort) SendFunctional(pkt *Packet) {
	if p.peer == nil {
		panic("port: SendFunctional on unbound port " + p.name)
	}
	f, ok := p.peer.owner.(Functional)
	if !ok {
		panic("port: peer of " + p.name + " does not support functional access")
	}
	f.FunctionalAccess(pkt)
}

// Name returns the port name.
func (p *ResponsePort) Name() string { return p.name }

// Bound reports whether the port has a peer.
func (p *ResponsePort) Bound() bool { return p.peer != nil }

// Peer returns the connected request port (nil if unbound).
func (p *ResponsePort) Peer() *RequestPort { return p.peer }

// SendTimingResp attempts to deliver a response to the peer requestor. If it
// returns false the responder must not resend until RecvRespRetry fires.
func (p *ResponsePort) SendTimingResp(pkt *Packet) bool {
	if p.peer == nil {
		panic("port: SendTimingResp on unbound port " + p.name)
	}
	if !pkt.IsResponse() {
		panic("port: SendTimingResp with request packet " + pkt.Cmd.String())
	}
	ok := p.peer.owner.RecvTimingResp(pkt)
	if !ok {
		p.needRespRetry = true
	}
	return ok
}

// SendRetryReq tells the peer requestor that it may resend the request the
// responder previously refused. It is a no-op unless a refusal is pending,
// so responders can call it unconditionally when resources free up.
func (p *ResponsePort) SendRetryReq() {
	if p.peer == nil {
		panic("port: SendRetryReq on unbound port " + p.name)
	}
	if p.needReqRetry {
		p.needReqRetry = false
		p.peer.owner.RecvReqRetry()
	}
}

// WaitingForReqRetry reports whether a refused requestor awaits a retry.
func (p *ResponsePort) WaitingForReqRetry() bool { return p.needReqRetry }

// DeclareAdmissionClasses tells requestors that the owner's refusals depend
// only on a static class of the packet: classOf maps every request to a class
// in [0, n) — for a DRAM controller, the queue it would occupy. Declaring is a
// promise about RecvTimingReq:
//
//   - between two retries (more exactly: for as long as the owner is only
//     being offered requests and runs no event of its own), once it has
//     refused a packet of a class it refuses every later packet of that
//     class;
//   - a refusal changes nothing in the owner — no counter, no trace line, no
//     allocation — so an offer that would be refused may as well not be made.
//
// A ReqQueue uses the promise to stop offering a class after its first
// refusal in a walk, which makes a retry cost what it gets accepted instead of
// what is waiting. Responders whose refusals depend on anything else (a cache
// refuses a miss when its MSHRs are full but still accepts a hit, and counts
// the stall) must not declare. Declare before traffic flows; Interpose
// withdraws the declaration, because a tap may accept or see what the owner
// would have refused.
func (p *ResponsePort) DeclareAdmissionClasses(n int, classOf func(*Packet) int) {
	if n < 1 || classOf == nil {
		panic("port: DeclareAdmissionClasses on " + p.name + " needs at least one class and a classifier")
	}
	p.classes, p.classOf = n, classOf
}

// AdmissionClasses returns the declaration made with DeclareAdmissionClasses
// (0, nil when there is none), for a wrapper that fronts the owner on another
// port and passes its refusals through unchanged.
func (p *ResponsePort) AdmissionClasses() (n int, classOf func(*Packet) int) {
	return p.classes, p.classOf
}
