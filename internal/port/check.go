package port

import (
	"fmt"
	"os"
	"strings"
)

// CheckPortsEnv names the environment variable that, when set, makes
// protocol checking the default (CheckFromEnv): the whole test suite, and
// any run with -check-ports, becomes a timing-port conformance test.
const CheckPortsEnv = "GEM5RTL_CHECK_PORTS"

// Checking selects whether the links a system binds get protocol Checkers.
// Each system makes its own choice (soc.Oracles), so runs that differ in it
// can share a process.
type Checking uint8

// The checking choices.
const (
	// CheckFromEnv, the zero value, checks when CheckPortsEnv is set.
	CheckFromEnv Checking = iota
	// CheckOn always attaches checkers.
	CheckOn
	// CheckOff never does: allocation rigs bind unchecked, because a
	// checker records every packet it sees.
	CheckOff
)

// On reports whether c attaches checkers.
func (c Checking) On() bool {
	if c == CheckFromEnv {
		return os.Getenv(CheckPortsEnv) != ""
	}
	return c == CheckOn
}

// Bind connects a request port to a response port, both unbound, and
// interposes a protocol Checker on the link when c is on.
func (c Checking) Bind(req *RequestPort, resp *ResponsePort) {
	bindRaw(req, resp)
	if c.On() {
		attachChecker(req, resp)
	}
}

// Checker enforces the gem5 timing-port contract on one bound link:
//
//   - a refused request must not be resent before RecvReqRetry;
//   - a refused response blocks all responses until RecvRespRetry (responders
//     deliver through a strictly ordered RespQueue);
//   - retries must not fire with nobody waiting;
//   - every response must answer an outstanding request, exactly once, with
//     no duplicate packet IDs in flight.
//
// Violations panic with the recent handshake history, turning a protocol bug
// into an immediate, located failure instead of a silent hang. Note the
// request-side rule is per packet, not per link: ReqQueue deliberately keeps
// trying later ready packets after a refusal (no head-of-line blocking), so
// only resending the *same* refused packet before its retry is an error.
type Checker struct {
	link string

	// outstanding tracks accepted requests awaiting a response: ID -> the
	// request command (responses must match read/write kind).
	outstanding map[uint64]Cmd
	// refused tracks request packet IDs refused and not yet retried.
	refused map[uint64]bool
	// respBlocked is set while a refused response awaits RecvRespRetry.
	respBlocked bool
	// restored is set once the link's response port is restored from a
	// checkpoint: a retry with no refusal on record then answers one made
	// before the checkpoint, and is adopted.
	restored bool

	seq  uint64
	hist []string
}

const checkerHistLen = 32

// BindChecked binds req to resp with a protocol Checker interposed, and
// returns the checker for quiescence assertions in tests. Exactly one
// checker is attached whatever CheckPortsEnv says.
func BindChecked(req *RequestPort, resp *ResponsePort) *Checker {
	bindRaw(req, resp)
	return attachChecker(req, resp)
}

// BindUnchecked binds req to resp with no checker even when CheckPortsEnv
// is set. It exists for white-box test rigs that inject traffic
// around the port API (calling RecvTimingReq on a component directly, or
// scheduling fabricated responses into a queue): a checker would flag their
// responses as unanswered requests. Simulation wiring should use Bind.
func BindUnchecked(req *RequestPort, resp *ResponsePort) {
	bindRaw(req, resp)
}

// attachChecker interposes validating owner wrappers on an already-bound
// link. Owners are only consulted for delivery, so swapping them after Bind
// is transparent to the components on either side.
func attachChecker(req *RequestPort, resp *ResponsePort) *Checker {
	c := &Checker{
		link:        req.name + "<->" + resp.name,
		outstanding: map[uint64]Cmd{},
		refused:     map[uint64]bool{},
	}
	req.owner = &checkedRequestor{c: c, inner: req.owner}
	resp.owner = &checkedResponder{c: c, inner: resp.owner}
	resp.checker = c
	return c
}

// Outstanding returns the number of accepted requests still awaiting their
// response.
func (c *Checker) Outstanding() int { return len(c.outstanding) }

// CheckQuiescent returns an error if the link still has unanswered requests —
// the "every request eventually answered" invariant, asserted by tests once
// a simulation has drained.
func (c *Checker) CheckQuiescent() error {
	if len(c.outstanding) == 0 {
		return nil
	}
	ids := make([]string, 0, len(c.outstanding))
	for id, cmd := range c.outstanding {
		ids = append(ids, fmt.Sprintf("%d(%s)", id, cmd))
	}
	return fmt.Errorf("port: link %s has %d unanswered requests: %s",
		c.link, len(c.outstanding), strings.Join(ids, " "))
}

func (c *Checker) record(format string, args ...any) {
	c.seq++
	line := fmt.Sprintf("#%d %s", c.seq, fmt.Sprintf(format, args...))
	if len(c.hist) == checkerHistLen {
		copy(c.hist, c.hist[1:])
		c.hist[len(c.hist)-1] = line
	} else {
		c.hist = append(c.hist, line)
	}
}

func (c *Checker) violate(format string, args ...any) {
	panic(fmt.Sprintf("port: protocol violation on link %s: %s\nhandshake history (most recent last):\n  %s",
		c.link, fmt.Sprintf(format, args...), strings.Join(c.hist, "\n  ")))
}

// checkedResponder validates inbound requests and response retries.
type checkedResponder struct {
	c     *Checker
	inner Responder
}

func (r *checkedResponder) RecvTimingReq(pkt *Packet) bool {
	c := r.c
	// Capture identity before delegating: a responder with posted writes
	// (the DRAM controller) mutates the packet into its response inside
	// RecvTimingReq, and the terminus of a no-response command may Release
	// a pooled packet before returning.
	id, cmd, needsResp := pkt.ID, pkt.Cmd, pkt.NeedsResponse()
	addr, size := pkt.Addr, pkt.Size
	if c.refused[id] {
		c.record("req  id=%d %s addr=%#x RESENT-WHILE-REFUSED", id, cmd, pkt.Addr)
		c.violate("request id=%d (%s) resent before RecvReqRetry", id, cmd)
	}
	if _, dup := c.outstanding[id]; dup && needsResp {
		c.record("req  id=%d %s addr=%#x DUPLICATE", id, cmd, pkt.Addr)
		c.violate("duplicate in-flight request id=%d (%s)", id, cmd)
	}
	ok := r.inner.RecvTimingReq(pkt)
	c.record("req  id=%d %s addr=%#x size=%d -> %s", id, cmd, addr, size, accepted(ok))
	if ok {
		if needsResp {
			c.outstanding[id] = cmd
		}
	} else {
		c.refused[id] = true
	}
	return ok
}

func (r *checkedResponder) RecvRespRetry() {
	c := r.c
	if !c.respBlocked {
		if c.restored {
			c.record("resp-retry pre-checkpoint (adopted)")
			r.inner.RecvRespRetry()
			return
		}
		c.record("resp-retry NO-WAITER")
		c.violate("RecvRespRetry with no refused response waiting")
	}
	c.respBlocked = false
	c.record("resp-retry")
	r.inner.RecvRespRetry()
}

// checkedRequestor validates inbound responses and request retries.
type checkedRequestor struct {
	c     *Checker
	inner Requestor
}

func (r *checkedRequestor) RecvTimingResp(pkt *Packet) bool {
	c := r.c
	// Capture identity before delegating: the requestor owns the response and
	// may Release the pooled packet as soon as it has consumed it.
	id, cmd, addr := pkt.ID, pkt.Cmd, pkt.Addr
	if c.respBlocked {
		c.record("resp id=%d %s SENT-WHILE-BLOCKED", id, cmd)
		c.violate("response id=%d (%s) delivered before RecvRespRetry", id, cmd)
	}
	req, known := c.outstanding[id]
	if !known {
		if pkt.restored {
			// The request was accepted before the checkpoint; adopt its
			// response and skip the kind cross-check (the request command was
			// never observed on this side of the restore).
			c.record("resp id=%d %s pre-checkpoint (adopted)", id, cmd)
			ok := r.inner.RecvTimingResp(pkt)
			c.record("resp id=%d %s addr=%#x -> %s", id, cmd, addr, accepted(ok))
			if !ok {
				c.respBlocked = true
			}
			return ok
		}
		c.record("resp id=%d %s UNKNOWN", id, cmd)
		c.violate("response id=%d (%s) matches no outstanding request", id, cmd)
	}
	if req.IsRead() != cmd.IsRead() {
		c.record("resp id=%d %s MISMATCH req=%s", id, cmd, req)
		c.violate("response id=%d is %s for a %s request", id, cmd, req)
	}
	ok := r.inner.RecvTimingResp(pkt)
	c.record("resp id=%d %s addr=%#x -> %s", id, cmd, addr, accepted(ok))
	if ok {
		delete(c.outstanding, id)
	} else {
		c.respBlocked = true
	}
	return ok
}

func (r *checkedRequestor) RecvReqRetry() {
	c := r.c
	if len(c.refused) == 0 {
		if c.restored {
			// A refusal checkpointed as a restored needReqRetry flag fires its
			// retry in this process; the refusal itself predates the checker.
			c.record("req-retry pre-checkpoint (adopted)")
			r.inner.RecvReqRetry()
			return
		}
		c.record("req-retry NO-WAITER")
		c.violate("RecvReqRetry with no refused request waiting")
	}
	// One retry wakes the requestor, which may resend any (or all) of its
	// refused packets; clear the whole refused set.
	c.refused = map[uint64]bool{}
	c.record("req-retry")
	r.inner.RecvReqRetry()
}

func accepted(ok bool) string {
	if ok {
		return "accepted"
	}
	return "refused"
}
