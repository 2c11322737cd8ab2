// Package kernelbench holds the four microbenchmark bodies that
// bench/probes.go times for its per-layer rows — queue/calendar,
// queue/oneshot, packet/pool, rtl/bytecode — and the `go test -bench
// BenchmarkKernel` wrapper that runs the same bodies for interactive
// profiling. It gates nothing: what these rows once pinned per op is held by
// tests (PERFORMANCE.md §3), and end-to-end performance by the bench/ ledger.
package kernelbench

import (
	"fmt"
	"testing"

	"gem5rtl/internal/pmu"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/verilog"
)

// Bench is one suite entry.
type Bench struct {
	// Name identifies the row ("queue/calendar").
	Name string
	// Run is the standard benchmark body.
	Run func(b *testing.B)
}

// Suite returns the kernel benchmark suite in a fixed order.
func Suite() []Bench {
	return []Bench{
		{"queue/calendar", benchQueueChurn},
		{"queue/oneshot", benchOneShot},
		{"packet/pool", benchPacketPool},
		{"rtl/bytecode", benchRTL},
	}
}

// benchQueueChurn measures steady-state Schedule/dispatch throughput on a
// mixed event population: 64 near-future tickers at coprime clock-like
// periods (the common case: every component reschedules within the calendar
// window) plus 4 far tickers whose period is derived from sim.CalendarWindow,
// so they land in the spill heap each round whatever the ring's geometry. One
// op = one event dispatch. Every event carries an owner tag (tagging is always
// on in real components).
func benchQueueChurn(b *testing.B) {
	q := sim.NewEventQueue()
	periods := []sim.Tick{500, 625, 750, 1000, 1250, 2000, 3125, 10000}
	var events []*sim.Event
	for i := 0; i < 64; i++ {
		i := i
		p := periods[i%len(periods)]
		owner := q.Owner(fmt.Sprintf("bench%d", i%8), "tick")
		var ev *sim.Event
		ev = sim.NewEvent(fmt.Sprintf("tick%d", i), func() {
			q.Schedule(ev, q.Now()+p)
		}).SetOwner(owner)
		events = append(events, ev)
		q.Schedule(ev, sim.Tick(1+i))
	}
	for i := 0; i < 4; i++ {
		i := i
		far := sim.CalendarWindow + sim.Tick(100_000+7_000*i) // beyond the calendar window
		var ev *sim.Event
		ev = sim.NewEvent(fmt.Sprintf("far%d", i), func() {
			q.Schedule(ev, q.Now()+far)
		})
		events = append(events, ev)
		q.Schedule(ev, far)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Step()
	}
	b.StopTimer()
	for _, ev := range events {
		q.Deschedule(ev)
	}
}

// benchOneShot measures the pooled fire-and-forget path: schedule one
// recycled one-shot and dispatch it. Steady state must not allocate.
func benchOneShot(b *testing.B) {
	q := sim.NewEventQueue()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ScheduleOneShot("os", q.Now()+10, fn)
		q.Step()
	}
}

// benchPacketPool measures the pooled packet round trip the memory system
// performs per access: Get, materialise a response payload, Release.
func benchPacketPool(b *testing.B) {
	var pool port.PacketPool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := pool.GetRead(0x1000, 64)
		pkt.MakeResponse()
		pkt.AllocateData()
		pkt.Release()
	}
}

// benchRTL measures the RTL hot path — one full PMU model clock cycle — on
// the duty cycle the SoC actually presents: the PMU is clocked every cycle,
// but commit/miss event pulses arrive in bursts (one active cycle in eight
// here) with idle cycles between them. One op = one Tick. Steady state must
// not allocate.
func benchRTL(b *testing.B) {
	m, err := verilog.Compile(pmu.VerilogSource(pmu.NumCounters), "pmu", nil)
	if err != nil {
		b.Fatal(err)
	}
	// Enable every event line through the AXI port (one configuration
	// write), then idle the port for the timed loop.
	m.SetInput("awvalid", 1)
	m.SetInput("awaddr", pmu.RegEnable)
	m.SetInput("wdata", (1<<6)-1)
	m.Tick()
	m.SetInput("awvalid", 0)
	events := m.InputID("events")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ev uint64
		if i&7 == 0 {
			ev = uint64(i>>3)&0x3f | 1 // commit burst; bit 0 always pulses
		}
		m.SetInputID(events, ev)
		m.Tick()
	}
}
