package mem

import (
	"gem5rtl/internal/obs"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

// Scratchpad is an on-chip SRAM responder: fixed low latency and a private
// data bus whose width bounds its bandwidth. It implements the extension the
// paper proposes in §4.2 — hooking "a proper SRAM such as a scratchpad
// memory" to the NVDLA's SRAMIF instead of routing that interface to main
// memory. Like every controller it models timing only: the requesting agent
// reads and writes the bytes it serves in the system's store.
type Scratchpad struct {
	q       *sim.EventQueue
	prt     *port.ResponsePort
	rq      *port.RespQueue
	latency sim.Tick
	// perByte is the bus occupancy per byte (e.g. 64 GB/s -> ~15.6 ps/B).
	perByte   float64
	busFreeAt sim.Tick

	Reads  uint64
	Writes uint64
	Bytes  uint64

	// trace is the Mem debug-flag logger (nil = off; see AttachTracer).
	trace *obs.Logger
}

// ScratchpadConfig sizes a scratchpad.
type ScratchpadConfig struct {
	Name    string
	Latency sim.Tick
	// BandwidthGBs bounds throughput (0 = unlimited).
	BandwidthGBs float64
}

// DefaultScratchpadConfig returns a 2 ns, 64 GB/s on-chip SRAM.
func DefaultScratchpadConfig(name string) ScratchpadConfig {
	return ScratchpadConfig{Name: name, Latency: 2 * sim.Nanosecond, BandwidthGBs: 64}
}

// NewScratchpad creates a scratchpad on the given queue.
func NewScratchpad(cfg ScratchpadConfig, q *sim.EventQueue) *Scratchpad {
	s := &Scratchpad{q: q, latency: cfg.Latency}
	if cfg.BandwidthGBs > 0 {
		s.perByte = 1.0 / cfg.BandwidthGBs * 1000 // ps per byte
	}
	s.prt = port.NewResponsePort(cfg.Name, s)
	s.rq = port.NewRespQueue(cfg.Name, q, s.prt)
	return s
}

// Port returns the scratchpad's response port.
func (s *Scratchpad) Port() *port.ResponsePort { return s.prt }

// RecvTimingReq implements port.Responder; it never refuses (SRAM arrays
// accept a request per cycle) but serialises data on its bus.
func (s *Scratchpad) RecvTimingReq(pkt *port.Packet) bool {
	occupancy := sim.Tick(float64(pkt.Size) * s.perByte)
	start := s.q.Now()
	if s.busFreeAt > start {
		start = s.busFreeAt
	}
	s.busFreeAt = start + occupancy
	done := start + occupancy + s.latency
	if s.trace.On() {
		s.trace.Logf("%s addr=%#x size=%d done=%d", pkt.Cmd, pkt.Addr, pkt.Size, uint64(done))
	}
	s.Bytes += uint64(pkt.Size)
	if pkt.Cmd.IsWrite() {
		s.Writes++
		if !pkt.NeedsResponse() {
			// Writeback terminus: recycle the packet.
			pkt.Release()
			return true
		}
	} else {
		s.Reads++
	}
	pkt.MakeResponse()
	s.rq.Schedule(pkt, done)
	return true
}

// RecvRespRetry implements port.Responder.
func (s *Scratchpad) RecvRespRetry() { s.rq.RecvRespRetry() }
