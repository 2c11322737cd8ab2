package port

// TapAction is a LinkTap's verdict on one packet delivery.
type TapAction int

// Tap verdicts.
const (
	// TapPass delivers the packet normally (possibly after the tap mutated
	// its payload in place).
	TapPass TapAction = iota
	// TapDrop swallows the packet: the sender sees a successful delivery but
	// the receiver never does. This models a lost transfer.
	TapDrop
	// TapDup delivers the packet twice, modelling a replayed transfer.
	TapDup
)

// LinkTap observes (and may corrupt) traffic on a bound link. Taps are the
// injection point of the fault campaign engine: payload flips mutate the
// packet and return TapPass; loss and replay faults return TapDrop/TapDup.
type LinkTap interface {
	// TapReq sees every request delivered toward the responder.
	TapReq(pkt *Packet) TapAction
	// TapResp sees every response delivered toward the requestor.
	TapResp(pkt *Packet) TapAction
}

// Injector re-delivers held packets to the endpoints beneath a tap, for
// delayed-delivery faults: the tap returns TapDrop and later re-injects the
// packet through the Injector.
type Injector struct {
	reqInner  Requestor
	respInner Responder
}

// DeliverResp hands a response to the requestor beneath the tap, bypassing
// the tap itself. The requestor's acceptance is returned; a late redelivery
// into a refusing requestor is dropped (the fault made it so).
func (inj *Injector) DeliverResp(pkt *Packet) bool {
	return inj.reqInner.RecvTimingResp(pkt)
}

// DeliverReq hands a request to the responder beneath the tap.
func (inj *Injector) DeliverReq(pkt *Packet) bool {
	return inj.respInner.RecvTimingReq(pkt)
}

// Interpose wraps both owners of an already-bound link with tap adapters, so
// every timing delivery flows through the tap. Retries pass through
// unobserved. The returned Injector reaches the wrapped endpoints for
// delayed re-delivery. Multiple interpositions nest (outermost sees traffic
// first); a tap over a checked link observes traffic before the checker
// validates it, so injected faults exercise the checker too.
//
// The responder's admission-class declaration (DeclareAdmissionClasses) is
// withdrawn: a tap that drops or replays changes what is accepted, and an
// observing tap must see every offer, so the link's ReqQueue goes back to
// offering every ready packet on every retry. The protocol checker, which
// does neither, leaves the declaration in place.
func Interpose(req *RequestPort, tap LinkTap) *Injector {
	if req.peer == nil {
		panic("port: Interpose on unbound port " + req.name)
	}
	resp := req.peer
	resp.classes, resp.classOf = 0, nil
	inj := &Injector{reqInner: req.owner, respInner: resp.owner}
	req.owner = &tappedRequestor{tap: tap, inner: req.owner}
	resp.owner = &tappedResponder{tap: tap, inner: resp.owner, port: resp}
	return inj
}

type tappedRequestor struct {
	tap   LinkTap
	inner Requestor
}

func (t *tappedRequestor) RecvTimingResp(pkt *Packet) bool {
	switch t.tap.TapResp(pkt) {
	case TapDrop:
		// Swallowed: report success so the responder retires it.
		return true
	case TapDup:
		if ok := t.inner.RecvTimingResp(pkt); !ok {
			return false
		}
		t.inner.RecvTimingResp(pkt)
		return true
	}
	return t.inner.RecvTimingResp(pkt)
}

func (t *tappedRequestor) RecvReqRetry() { t.inner.RecvReqRetry() }

type tappedResponder struct {
	tap   LinkTap
	inner Responder
	port  *ResponsePort
}

func (t *tappedResponder) RecvTimingReq(pkt *Packet) bool {
	switch t.tap.TapReq(pkt) {
	case TapDrop:
		return true
	case TapDup:
		if ok := t.inner.RecvTimingReq(pkt); !ok {
			return false
		}
		t.inner.RecvTimingReq(pkt)
		return true
	}
	return t.inner.RecvTimingReq(pkt)
}

func (t *tappedResponder) RecvRespRetry() { t.inner.RecvRespRetry() }

// FunctionalAccess forwards functional traffic beneath the tap (faults apply
// to timing traffic only), preserving the unwrapped link's panic for
// responders without functional support.
func (t *tappedResponder) FunctionalAccess(pkt *Packet) {
	f, ok := t.inner.(Functional)
	if !ok {
		panic("port: peer of " + t.port.peer.name + " does not support functional access")
	}
	f.FunctionalAccess(pkt)
}
