package obs

import (
	"testing"

	"gem5rtl/internal/conform"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/stats"
)

// echoResponder responds to every request after a fixed latency.
type echoResponder struct {
	q       *sim.EventQueue
	prt     *port.ResponsePort
	rq      *port.RespQueue
	latency sim.Tick
}

func newEchoResponder(q *sim.EventQueue, latency sim.Tick) *echoResponder {
	r := &echoResponder{q: q, latency: latency}
	r.prt = port.NewResponsePort("echo", r)
	r.rq = port.NewRespQueue("echo", q, r.prt)
	return r
}

func (r *echoResponder) RecvTimingReq(pkt *port.Packet) bool {
	if !pkt.NeedsResponse() {
		return true
	}
	pkt.MakeResponse()
	r.rq.Schedule(pkt, r.q.Now()+r.latency)
	return true
}

func (r *echoResponder) RecvRespRetry() { r.rq.RecvRespRetry() }

// sink accepts every response.
type sink struct{ prt *port.RequestPort }

func newSink() *sink {
	s := &sink{}
	s.prt = port.NewRequestPort("sink", s)
	return s
}

func (s *sink) RecvTimingResp(*port.Packet) bool { return true }
func (s *sink) RecvReqRetry()                    {}

func TestLatencyTapMeasuresRoundTrip(t *testing.T) {
	q := sim.NewEventQueue()
	resp := newEchoResponder(q, 250)
	req := newSink()
	port.Bind(req.prt, resp.prt)
	p := NewLatencyProfile(q)
	port.Interpose(req.prt, p.Tap("link"))

	q.ScheduleFunc("send", 100, func() {
		if !req.prt.SendTimingReq(port.NewReadPacket(0x40, 64)) {
			t.Error("request refused")
		}
	})
	q.Run()

	h := p.Lookup("link").Hist()
	if h.Count() != 1 {
		t.Fatalf("samples = %d, want 1", h.Count())
	}
	if h.Min() != 250 || h.Max() != 250 {
		t.Fatalf("latency = [%d,%d], want 250", h.Min(), h.Max())
	}
	if p.Lookup("link").InFlight() != 0 {
		t.Fatal("in-flight not drained")
	}
}

func TestLatencyTapIgnoresIDLessAndPosted(t *testing.T) {
	q := sim.NewEventQueue()
	tap := NewLatencyProfile(q).Tap("x")
	tap.TapReq(&port.Packet{Cmd: port.ReadReq, Size: 8}) // ID 0
	posted := port.NewPacket(port.WriteReq, 0, 8)
	posted.Cmd = port.WritebackDirty // posted: no response expected
	tap.TapReq(posted)
	if tap.InFlight() != 0 {
		t.Fatalf("in-flight = %d, want 0", tap.InFlight())
	}
}

func TestLatencyTapStampsFirstSightingOnly(t *testing.T) {
	q := sim.NewEventQueue()
	tap := NewLatencyProfile(q).Tap("x")
	pkt := port.NewReadPacket(0x80, 64)
	q.ScheduleFunc("first", 10, func() { tap.TapReq(pkt) })
	// A refused-then-redelivered request re-passes the tap later; the
	// original stamp must win so the retry delay counts as latency.
	q.ScheduleFunc("redeliver", 50, func() { tap.TapReq(pkt) })
	q.ScheduleFunc("resp", 110, func() {
		pkt.MakeResponse()
		tap.TapResp(pkt)
	})
	q.Run()
	if got := tap.Hist().Max(); got != 100 {
		t.Fatalf("latency = %d, want 100 (first sighting at t=10)", got)
	}
}

func TestLatencyProfileRegisterStats(t *testing.T) {
	q := sim.NewEventQueue()
	p := NewLatencyProfile(q)
	p.Tap("a")
	p.Tap("b")
	reg := stats.NewRegistry()
	p.Register(reg)
	for _, name := range []string{
		"obs.lat.a.samples", "obs.lat.a.mean", "obs.lat.a.min",
		"obs.lat.a.max", "obs.lat.a.p50", "obs.lat.a.p95",
		"obs.lat.a.p99", "obs.lat.b.samples",
	} {
		if _, ok := reg.Get(name); !ok {
			t.Fatalf("stat %s not registered", name)
		}
	}
}

// TestLatencyStraddleCheckpoint is satellite 3's second property: a packet
// in flight across a checkpoint keeps its original inject tick, so the
// post-restore response yields the true (positive) latency.
func TestLatencyStraddleCheckpoint(t *testing.T) {
	q := sim.NewEventQueue()
	p := NewLatencyProfile(q)
	tap := p.Tap("link")
	pkt := port.NewReadPacket(0xc0, 64)
	q.ScheduleFunc("inject", 100, func() { tap.TapReq(pkt) })
	q.Run() // now = 100, packet in flight

	snap := conform.Save(t, p)

	// "Fresh process": a new queue resumed past the checkpoint tick and a
	// freshly attached profile with the same topology.
	q2 := sim.NewEventQueue()
	p2 := NewLatencyProfile(q2)
	tap2 := p2.Tap("link")
	conform.Restore(t, snap, p2)
	if tap2.InFlight() != 1 {
		t.Fatalf("restored in-flight = %d, want 1", tap2.InFlight())
	}
	q2.ScheduleFunc("resp", 700, func() {
		pkt.MakeResponse()
		tap2.TapResp(pkt)
	})
	q2.Run()
	h := tap2.Hist()
	if h.Count() != 1 || h.Max() != 600 {
		t.Fatalf("straddling latency = %d (n=%d), want 600", h.Max(), h.Count())
	}
	// A wrapped (negative) latency would land in the top bucket.
	if h.Bucket(histBuckets-1) != 0 {
		t.Fatal("negative latency wrapped into the top bucket")
	}
}

func TestLatencyProfileTopologyMismatch(t *testing.T) {
	q := sim.NewEventQueue()
	p := NewLatencyProfile(q)
	p.Tap("a")
	snap := conform.Save(t, p)

	twoTaps := NewLatencyProfile(q)
	twoTaps.Tap("a")
	twoTaps.Tap("b")
	if err := conform.Load(snap, twoTaps); err == nil {
		t.Fatal("tap-count mismatch accepted")
	}

	renamed := NewLatencyProfile(q)
	renamed.Tap("z")
	if err := conform.Load(snap, renamed); err == nil {
		t.Fatal("tap-name mismatch accepted")
	}
}
