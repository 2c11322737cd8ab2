// Package pmu implements the paper's first use case (§4.1): an in-house
// performance monitoring unit with a configurable number of 32-bit event
// counters, programmable thresholds that raise an interrupt, and an
// AXI-Lite-style configuration interface. The PMU is real RTL: its Verilog
// source (generated here, playing the role of generate-loops) is compiled by
// gem5rtl's Verilog frontend into a cycle-accurate model, then wrapped for
// the RTLObject exactly as Figure 3 shows — event_enable bits and AXI
// read/write in the input struct, AXI responses and the interrupt in the
// output struct.
//
// Behavioural artefacts the paper studies are faithfully present: events are
// recorded with a one-cycle delay (events register), and when a threshold
// interrupt fires the counter resets, losing any event arriving in the reset
// cycle — the discrepancies §6.1 quantifies against gem5's own statistics.
//
// The wrapper is an rtlobject.Sleeper, and knows nothing of the netlist to
// be one: while it has no event or AXI transaction to drive, the stretch of
// cycles the RTLObject may apply without dispatching them is the one the
// compiled netlist reports (rtl.Model.Quiet) — for the programmed PMU, up to
// the cycle the monitored counter reaches its threshold.
package pmu

import (
	"fmt"
	"strings"
	"sync"

	"gem5rtl/internal/obs"
	"gem5rtl/internal/rtl"
	"gem5rtl/internal/rtlc"
	"gem5rtl/internal/rtlobject"
	"gem5rtl/internal/verilog"
)

// NumCounters matches Table 1: 20 32-bit counters.
const NumCounters = 20

// Register map (byte addresses on the AXI-Lite port).
const (
	RegCounterBase = 0x00 // counter i at 4*i; writes clear
	RegEnable      = 0x80 // event_enable bits
	RegThreshVal   = 0x84 // threshold value (0 disables)
	RegThreshSel   = 0x88 // counter index monitored by the threshold
)

// Event line assignments used by the gem5rtl SoC integration (§5.2.1): four
// commit lines (the OoO core commits up to 4 per cycle), one L1D-miss line,
// and one cycle line.
const (
	EvCommit0 = 0
	EvCommit1 = 1
	EvCommit2 = 2
	EvCommit3 = 3
	EvL1DMiss = 4
	EvCycle   = 5
)

// VerilogSource generates the PMU's Verilog for nc counters. The per-counter
// logic is emitted explicitly (the subset has no generate loops).
func VerilogSource(nc int) string {
	var b strings.Builder
	fmt.Fprintf(&b, `// Auto-generated PMU RTL: %d x 32-bit event counters with a
// threshold interrupt and an AXI-Lite register file.
module pmu (
    input  wire clk,
    input  wire rst,
    input  wire [%d:0] events,
    input  wire awvalid,
    input  wire [7:0] awaddr,
    input  wire [31:0] wdata,
    input  wire arvalid,
    input  wire [7:0] araddr,
    output reg  [31:0] rdata,
    output reg  rvalid,
    output wire irq
);
`, nc, nc-1)
	for i := 0; i < nc; i++ {
		fmt.Fprintf(&b, "  reg [31:0] c%d;\n", i)
	}
	fmt.Fprintf(&b, `  reg [%d:0] ev_r;
  reg [%d:0] enable;
  reg [31:0] thresh_val;
  reg [4:0]  thresh_sel;
  reg irq_r;
  assign irq = irq_r;

  wire [31:0] selcnt;
  assign selcnt = `, nc-1, nc-1)
	for i := 0; i < nc-1; i++ {
		fmt.Fprintf(&b, "(thresh_sel == 5'd%d) ? c%d :\n                  ", i, i)
	}
	fmt.Fprintf(&b, "c%d;\n", nc-1)
	fmt.Fprintf(&b, `
  wire thresh_hit;
  assign thresh_hit = (thresh_val != 32'd0) && (selcnt >= thresh_val);

  wire [31:0] rmux;
  assign rmux = `)
	for i := 0; i < nc; i++ {
		fmt.Fprintf(&b, "(araddr == 8'd%d) ? c%d :\n                ", 4*i, i)
	}
	fmt.Fprintf(&b, `(araddr == 8'h80) ? {%d'd0, enable} :
                (araddr == 8'h84) ? thresh_val :
                (araddr == 8'h88) ? {27'd0, thresh_sel} :
                32'hDEADBEEF;

  always @(posedge clk) begin
    if (rst) begin
      ev_r <= 0;
      enable <= 0;
      thresh_val <= 0;
      thresh_sel <= 0;
      irq_r <= 0;
      rvalid <= 0;
      rdata <= 0;
`, 32-nc)
	for i := 0; i < nc; i++ {
		fmt.Fprintf(&b, "      c%d <= 0;\n", i)
	}
	fmt.Fprintf(&b, `    end else begin
      // One-cycle recording delay: events land in ev_r first.
      ev_r <= events & enable;
      irq_r <= thresh_hit;
`)
	for i := 0; i < nc; i++ {
		fmt.Fprintf(&b, `      c%[1]d <= (awvalid && (awaddr == 8'd%[2]d)) ? 32'd0 :
            ((thresh_hit && (thresh_sel == 5'd%[1]d)) ? 32'd0 : (c%[1]d + ev_r[%[1]d]));
`, i, 4*i)
	}
	fmt.Fprintf(&b, `      if (awvalid && (awaddr == 8'h80)) enable <= wdata[%d:0];
      if (awvalid && (awaddr == 8'h84)) thresh_val <= wdata;
      if (awvalid && (awaddr == 8'h88)) thresh_sel <= wdata[4:0];
      rvalid <= arvalid;
      if (arvalid) rdata <= rmux;
    end
  end
endmodule
`, nc-1)
	return b.String()
}

// elaborate runs the Verilog front end on the generated PMU source.
func elaborate(nc int) (*rtl.Circuit, error) {
	f, err := verilog.Parse(VerilogSource(nc))
	if err != nil {
		return nil, err
	}
	return verilog.Elaborate(f, "pmu", nil)
}

// CompileModelEngine runs the Verilog toolflow on the generated PMU source
// and instantiates the circuit on the named evaluator, from scratch on every
// call. Its signature and NewWrapperEngine's are pinned by bench/probes.go
// (see rtl.Engine), which times this one as the compile cost; tests use the
// pair to build the reference beside the VM.
func CompileModelEngine(nc int, engine rtl.Engine) (*rtl.Model, error) {
	c, err := elaborate(nc)
	if err != nil {
		return nil, err
	}
	return instantiate(c, nil, engine)
}

// instantiate builds a model of c on the named evaluator; on the VM it runs
// p when p is not nil and compiles c otherwise.
func instantiate(c *rtl.Circuit, p *rtlc.Program, engine rtl.Engine) (*rtl.Model, error) {
	switch engine {
	case rtl.EngineBytecode:
		if p != nil {
			return rtlc.Instantiate(c, p)
		}
		return rtlc.NewModel(c)
	case rtl.EngineReference:
		return rtl.Compile(c)
	}
	return nil, fmt.Errorf("pmu: unknown RTL engine %q", engine)
}

// compiled is the PMU for one counter count, elaborated and compiled once
// per process. Neither the circuit nor the program is written after it is
// built, so every wrapper shares them; each Model and VM holds its own state.
type compiled struct {
	once sync.Once
	c    *rtl.Circuit
	p    *rtlc.Program
	err  error
}

var (
	compiledMu sync.Mutex
	compiledBy = map[int]*compiled{}
)

// compiledPMU returns the shared circuit and program for nc counters.
func compiledPMU(nc int) (*rtl.Circuit, *rtlc.Program, error) {
	compiledMu.Lock()
	e := compiledBy[nc]
	if e == nil {
		e = &compiled{}
		compiledBy[nc] = e
	}
	compiledMu.Unlock()
	e.once.Do(func() {
		if e.c, e.err = elaborate(nc); e.err == nil {
			e.p, e.err = rtlc.Compile(e.c)
		}
	})
	return e.c, e.p, e.err
}

// Wrapper is the shared-library wrapper of Figure 3: it drives the PMU
// model's event and AXI inputs from the RTLObject input struct and returns
// AXI read data and the interrupt line in the output struct.
//
// SoC glue (the CPU commit tap, cache miss tap) accumulates events between
// model ticks via AddCommits/AddMiss; each Tick drains the accumulators onto
// the event wires (up to four commit lines per cycle, carrying any remainder
// into following cycles).
type Wrapper struct {
	model *rtl.Model
	nc    int

	// signal IDs resolved once
	inEvents, inRst              rtl.SigID
	inAwvalid, inAwaddr, inWdata rtl.SigID
	inArvalid, inAraddr          rtl.SigID
	outRdata, outRvalid, outIrq  rtl.SigID

	pendingCommits int
	pendingMisses  int

	// One AXI transaction in flight at a time; extras queue here. The queue
	// is a request or two deep, so the head is removed by shifting down and
	// the backing array is reused.
	axiQ []rtlobject.CPURequest
	// Read issued on an earlier tick and not yet answered (reading is set).
	inflightRead rtlobject.CPURequest
	reading      bool

	// quietRun counts the consecutive Ticks that drove a quiet cycle's
	// inputs: the cycle event line alone and no AXI transaction. It is a
	// host-side policy, not state: while the core runs it commits on most
	// model cycles, and its quiet runs are one cycle long — parking the tick
	// event to be woken by the next commit costs more than ticking — so Quiet
	// reports nothing before the second quiet cycle, which costs one real
	// tick per idle window.
	quietRun int

	// out and rbuf are the Output handed back by Tick and its read payload,
	// reused every cycle: valid until the next Tick, like the Input.
	out  rtlobject.Output
	rbuf [4]byte

	// TickHook runs after every model tick (used by tests/tracing). While it
	// is set the wrapper reports no quiet cycles, so every cycle ticks. Set it
	// on a running PMU only after waking its RTLObject (RTLObject.Wake):
	// cycles the object has not yet applied would pass the hook by, and
	// applying them with a hook set panics.
	TickHook func(m *rtl.Model)

	// trace is the PMU debug-flag logger (nil = off; see AttachTracer).
	trace *obs.Logger
	// prevIrq tracks the IRQ line for edge tracing.
	prevIrq bool
}

// NewWrapper builds a PMU wrapper over a fresh model of the PMU RTL, which
// is compiled on the first call for nc counters only.
func NewWrapper(nc int) (*Wrapper, error) {
	return NewWrapperEngine(nc, rtl.EngineBytecode)
}

// NewWrapperEngine is NewWrapper on the named evaluator (see
// CompileModelEngine).
func NewWrapperEngine(nc int, engine rtl.Engine) (*Wrapper, error) {
	c, p, err := compiledPMU(nc)
	if err != nil {
		return nil, err
	}
	m, err := instantiate(c, p, engine)
	if err != nil {
		return nil, err
	}
	w := &Wrapper{model: m, nc: nc}
	w.inEvents = m.InputID("events")
	w.inRst = m.InputID("rst")
	w.inAwvalid = m.InputID("awvalid")
	w.inAwaddr = m.InputID("awaddr")
	w.inWdata = m.InputID("wdata")
	w.inArvalid = m.InputID("arvalid")
	w.inAraddr = m.InputID("araddr")
	w.outRdata = m.OutputID("rdata")
	w.outRvalid = m.OutputID("rvalid")
	w.outIrq = m.OutputID("irq")
	return w, nil
}

// Model exposes the compiled RTL model (waveform attachment, tests).
func (w *Wrapper) Model() *rtl.Model { return w.model }

// Name implements rtlobject.Wrapper.
func (w *Wrapper) Name() string { return "pmu" }

// Reset implements rtlobject.Wrapper: it pulses the synchronous reset.
func (w *Wrapper) Reset() {
	w.model.Reset()
	w.model.SetInputID(w.inRst, 1)
	w.model.Tick()
	w.model.SetInputID(w.inRst, 0)
	w.pendingCommits = 0
	w.pendingMisses = 0
	w.axiQ = w.axiQ[:0]
	w.reading = false
	w.quietRun = 0
}

// AddCommits accumulates committed-instruction events from the core tap.
func (w *Wrapper) AddCommits(n int) { w.pendingCommits += n }

// AddMiss accumulates one L1D miss event from the cache tap.
func (w *Wrapper) AddMiss() { w.pendingMisses++ }

// Tick implements rtlobject.Wrapper. The returned Output and its slices are
// reused by the next Tick.
func (w *Wrapper) Tick(in *rtlobject.Input) *rtlobject.Output {
	out := &w.out
	out.CPUResponses = out.CPUResponses[:0]
	w.axiQ = append(w.axiQ, in.CPURequests...)

	// Event wires for this cycle.
	var ev uint64
	c := w.pendingCommits
	if c > 4 {
		c = 4
	}
	w.pendingCommits -= c
	for i := 0; i < c; i++ {
		ev |= 1 << (EvCommit0 + i)
	}
	if w.pendingMisses > 0 {
		w.pendingMisses--
		ev |= 1 << EvL1DMiss
	}
	ev |= 1 << EvCycle
	w.model.SetInputID(w.inEvents, ev)
	quiet := ev == 1<<EvCycle

	// Drive at most one AXI transaction per cycle.
	w.model.SetInputID(w.inAwvalid, 0)
	w.model.SetInputID(w.inArvalid, 0)
	if !w.reading && len(w.axiQ) > 0 {
		quiet = false
		req := w.axiQ[0]
		n := copy(w.axiQ, w.axiQ[1:])
		w.axiQ[n] = rtlobject.CPURequest{} // drop the Data reference
		w.axiQ = w.axiQ[:n]
		if req.Write {
			var v uint64
			for i := 0; i < len(req.Data) && i < 4; i++ {
				v |= uint64(req.Data[i]) << (8 * i)
			}
			if w.trace.On() {
				w.trace.Logf("axi write addr=%#x data=%#x", req.Addr&0xFF, v)
			}
			w.model.SetInputID(w.inAwvalid, 1)
			w.model.SetInputID(w.inAwaddr, req.Addr&0xFF)
			w.model.SetInputID(w.inWdata, v)
			out.CPUResponses = append(out.CPUResponses, rtlobject.CPUResponse{ID: req.ID})
		} else {
			w.model.SetInputID(w.inArvalid, 1)
			w.model.SetInputID(w.inAraddr, req.Addr&0xFF)
			w.inflightRead, w.reading = req, true
		}
	}
	if quiet {
		w.quietRun++
	} else {
		w.quietRun = 0
	}

	w.model.Tick()
	if w.TickHook != nil {
		w.TickHook(w.model)
	}

	// rdata/rvalid are registered: after this Tick they reflect the arvalid
	// driven above, so the read completes one model cycle after issue.
	if w.reading && w.model.PeekID(w.outRvalid) == 1 {
		data := w.model.PeekID(w.outRdata)
		if w.trace.On() {
			w.trace.Logf("axi read addr=%#x -> %#x", w.inflightRead.Addr&0xFF, data)
		}
		w.rbuf = [4]byte{byte(data), byte(data >> 8), byte(data >> 16), byte(data >> 24)}
		out.CPUResponses = append(out.CPUResponses, rtlobject.CPUResponse{
			ID:   w.inflightRead.ID,
			Data: w.rbuf[:],
		})
		w.reading = false
	}
	out.Interrupt = w.model.PeekID(w.outIrq) == 1
	if out.Interrupt != w.prevIrq {
		if w.trace.On() {
			w.trace.Logf("irq %v", out.Interrupt)
		}
		w.prevIrq = out.Interrupt
	}
	return out
}

// Quiet implements rtlobject.Sleeper. A quiet cycle of the wrapper drives
// the cycle event line alone and no AXI transaction; while the wrapper has
// nothing else to drive and drove exactly that last cycle (and the one
// before, see quietRun), its quiet cycles are the model's with the inputs
// held, and the horizon is the compiled netlist's own (rtl.Model.Quiet,
// whose ^uint64(0) is rtlobject.Forever). No memory response wakes it: the
// PMU issues no memory requests.
func (w *Wrapper) Quiet() (uint64, rtlobject.InputKind) {
	if w.quietRun < 2 || w.pendingCommits != 0 || w.pendingMisses != 0 ||
		len(w.axiQ) != 0 || w.reading || w.TickHook != nil {
		return 0, 0
	}
	return w.model.Quiet(), 0
}

// Advance implements rtlobject.Sleeper: n quiet cycles of the wrapper are n
// cycles of the model with its inputs held.
func (w *Wrapper) Advance(n uint64, _ []rtlobject.MemResponse) {
	if w.TickHook != nil {
		panic("pmu: TickHook set while the PMU was asleep; wake its RTLObject before setting it")
	}
	w.model.Advance(n)
}

// Counter peeks counter i directly in the RTL model (testbench backdoor).
func (w *Wrapper) Counter(i int) uint32 {
	return uint32(w.model.Peek(fmt.Sprintf("c%d", i)))
}
