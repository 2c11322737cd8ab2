// Quickstart: integrate a hand-written Verilog RTL block into a simulated
// SoC in ~60 lines. A pulse-counter peripheral written in Verilog is
// compiled by the gem5rtl Verilog toolflow, wrapped with the tick/reset
// shared-library interface, dropped into an RTLObject, and probed through
// its CPU-side timing port — the whole Figure 1 pipeline end to end.
package main

import (
	"fmt"
	"log"

	"gem5rtl/internal/mem"
	"gem5rtl/internal/port"
	"gem5rtl/internal/rtlobject"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/verilog"
)

// The RTL design: counts cycles in which `pulse` is high; readable at any
// address; clears on any write.
const src = `
module pulsecnt (
    input  wire clk,
    input  wire pulse,
    input  wire clear,
    output reg [31:0] count
);
  always @(posedge clk) begin
    if (clear)      count <= 32'd0;
    else if (pulse) count <= count + 32'd1;
  end
endmodule
`

// wrapper adapts the compiled model to the RTLObject protocol.
type wrapper struct {
	m interface {
		SetInput(string, uint64)
		Tick()
		Peek(string) uint64
		Reset()
	}
}

func (w *wrapper) Name() string { return "pulsecnt" }
func (w *wrapper) Reset()       { w.m.Reset() }

func (w *wrapper) Tick(in *rtlobject.Input) *rtlobject.Output {
	out := &rtlobject.Output{}
	w.m.SetInput("pulse", 1) // pulse every cycle for the demo
	w.m.SetInput("clear", 0)
	for _, req := range in.CPURequests {
		if req.Write {
			w.m.SetInput("clear", 1)
			out.CPUResponses = append(out.CPUResponses, rtlobject.CPUResponse{ID: req.ID})
		} else {
			v := w.m.Peek("count")
			out.CPUResponses = append(out.CPUResponses, rtlobject.CPUResponse{
				ID: req.ID, Data: []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}})
		}
	}
	w.m.Tick()
	return out
}

// host is a minimal SoC agent reading the device.
type host struct{ got chan uint32 }

func (h *host) RecvTimingResp(pkt *port.Packet) bool {
	var v uint32
	for i, b := range pkt.Data {
		v |= uint32(b) << (8 * i)
	}
	h.got <- v
	return true
}
func (h *host) RecvReqRetry() {}

func main() {
	// 1) "Verilator": compile the RTL into a cycle-accurate model.
	model, err := verilog.Compile(src, "pulsecnt", nil)
	if err != nil {
		log.Fatal(err)
	}
	// 2) Build the simulated system: event queue, 2 GHz clock, RTLObject
	//    holding the wrapped model at 1 GHz (divider 2) over an empty store
	//    (the device does no DMA).
	q := sim.NewEventQueue()
	clk := sim.NewClockDomain("cpu", q, 2_000_000_000)
	obj := rtlobject.New(rtlobject.Config{Name: "pulsecnt", ClockDivider: 2},
		clk, mem.NewStorage(), &wrapper{m: model})
	// 3) Connect a host master to the device's CPU-side timing port.
	h := &host{got: make(chan uint32, 1)}
	hp := port.NewRequestPort("host", h)
	port.Bind(hp, obj.CPUPort(0))
	// 4) Run: let the device tick for 1 us, then read the counter.
	obj.Start()
	q.RunUntil(sim.Microsecond)
	hp.SendTimingReq(port.NewReadPacket(0, 4))
	q.RunUntil(q.Now() + 100*sim.Nanosecond)
	fmt.Printf("pulse count after 1us @1GHz: %d\n", <-h.got)
}
