package noc

import (
	"testing"

	"gem5rtl/internal/mem"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

type driver struct {
	q       *sim.EventQueue
	p       *port.RequestPort
	resps   []*port.Packet
	pending []*port.Packet
	stalled bool
}

func newDriver(q *sim.EventQueue, name string) *driver {
	d := &driver{q: q}
	d.p = port.NewRequestPort(name, d)
	return d
}

func (d *driver) RecvTimingResp(pkt *port.Packet) bool {
	d.resps = append(d.resps, pkt)
	return true
}

func (d *driver) RecvReqRetry() {
	d.stalled = false
	d.pump()
}

func (d *driver) send(pkt *port.Packet) {
	d.pending = append(d.pending, pkt)
	d.pump()
}

func (d *driver) pump() {
	for len(d.pending) > 0 && !d.stalled {
		if !d.p.SendTimingReq(d.pending[0]) {
			d.stalled = true
			return
		}
		d.pending = d.pending[1:]
	}
}

func cfg() Config {
	return Config{Name: "xbar", Latency: sim.Nanosecond, WidthBytes: 16, ClockTick: 500}
}

func TestRoutingByRange(t *testing.T) {
	q := sim.NewEventQueue()
	x := New(cfg(), q, 1, 2)
	store := mem.NewStorage()
	m0 := mem.NewIdealMemory("m0", q, store, 100)
	m1 := mem.NewIdealMemory("m1", q, store, 100)
	port.Bind(x.DownPort(0), m0.Port())
	port.Bind(x.DownPort(1), m1.Port())
	x.AddRoute(Route{Base: 0, Size: 0x1000, Down: 0})
	x.AddRoute(Route{Base: 0x1000, Size: 0x1000, Down: 1})
	d := newDriver(q, "cpu")
	port.Bind(d.p, x.FrontPort(0))

	d.send(port.NewReadPacket(0x10, 8))
	d.send(port.NewReadPacket(0x1010, 8))
	q.Run()
	if len(d.resps) != 2 {
		t.Fatalf("resps = %d", len(d.resps))
	}
	if m0.Reads != 1 || m1.Reads != 1 {
		t.Fatalf("routing wrong: m0=%d m1=%d", m0.Reads, m1.Reads)
	}
}

func TestInterleaveRouting(t *testing.T) {
	q := sim.NewEventQueue()
	x := New(cfg(), q, 1, 4)
	store := mem.NewStorage()
	var mems []*mem.IdealMemory
	for i := 0; i < 4; i++ {
		m := mem.NewIdealMemory("m", q, store, 100)
		port.Bind(x.DownPort(i), m.Port())
		mems = append(mems, m)
	}
	x.SetInterleave(true)
	d := newDriver(q, "cpu")
	port.Bind(d.p, x.FrontPort(0))
	for i := 0; i < 8; i++ {
		d.send(port.NewReadPacket(uint64(i)*64, 8))
	}
	q.Run()
	for i, m := range mems {
		if m.Reads != 2 {
			t.Fatalf("bank %d got %d reads, want 2", i, m.Reads)
		}
	}
}

func TestMultipleFrontsShareDownstream(t *testing.T) {
	q := sim.NewEventQueue()
	x := New(cfg(), q, 3, 1)
	store := mem.NewStorage()
	m := mem.NewIdealMemory("m", q, store, 100)
	port.Bind(x.DownPort(0), m.Port())
	var drivers []*driver
	for i := 0; i < 3; i++ {
		d := newDriver(q, "cpu")
		port.Bind(d.p, x.FrontPort(i))
		drivers = append(drivers, d)
	}
	for round := 0; round < 5; round++ {
		for _, d := range drivers {
			d.send(port.NewReadPacket(uint64(round)*64, 8))
		}
	}
	q.Run()
	for i, d := range drivers {
		if len(d.resps) != 5 {
			t.Fatalf("driver %d got %d responses", i, len(d.resps))
		}
	}
}

func TestLatencyApplied(t *testing.T) {
	q := sim.NewEventQueue()
	c := cfg()
	c.Latency = 10 * sim.Nanosecond
	x := New(c, q, 1, 1)
	m := mem.NewIdealMemory("m", q, mem.NewStorage(), sim.Nanosecond)
	port.Bind(x.DownPort(0), m.Port())
	d := newDriver(q, "cpu")
	port.Bind(d.p, x.FrontPort(0))
	d.send(port.NewReadPacket(0, 8))
	q.Run()
	// Two traversals (req + resp) of 10 ns plus 1 ns memory.
	if q.Now() < 21*sim.Nanosecond {
		t.Fatalf("round trip %d too fast", q.Now())
	}
}

func TestOutstandingLimit(t *testing.T) {
	q := sim.NewEventQueue()
	c := cfg()
	c.MaxOutstanding = 2
	x := New(c, q, 1, 1)
	m := mem.NewIdealMemory("m", q, mem.NewStorage(), 100*sim.Nanosecond)
	port.Bind(x.DownPort(0), m.Port())
	d := newDriver(q, "cpu")
	port.Bind(d.p, x.FrontPort(0))
	for i := 0; i < 10; i++ {
		d.send(port.NewReadPacket(uint64(i)*64, 8))
	}
	if !d.stalled {
		t.Fatal("no back-pressure at outstanding limit")
	}
	q.Run()
	if len(d.resps) != 10 {
		t.Fatalf("resps = %d", len(d.resps))
	}
}

func TestWritesNoResponseTracking(t *testing.T) {
	q := sim.NewEventQueue()
	x := New(cfg(), q, 1, 1)
	m := mem.NewIdealMemory("m", q, mem.NewStorage(), 100)
	port.Bind(x.DownPort(0), m.Port())
	d := newDriver(q, "cpu")
	port.Bind(d.p, x.FrontPort(0))
	// WritebackDirty expects no response and must not leak outstanding slots.
	for i := 0; i < 100; i++ {
		wb := port.NewPacket(port.WritebackDirty, uint64(i)*64, 64)
		wb.Data = make([]byte, 64)
		d.send(wb)
	}
	q.Run()
	if x.outstanding[0] != 0 {
		t.Fatalf("outstanding leaked: %d", x.outstanding[0])
	}
}
