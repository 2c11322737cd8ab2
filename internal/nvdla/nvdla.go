// Package nvdla implements the paper's second use case (§4.2): an NVDLA-like
// deep-learning accelerator integrated through the RTLObject. The real
// nv_full NVDLA is ~1M lines of Verilog; per DESIGN.md's substitution table
// gem5rtl models it at cycle level with the same external architecture
// (Figure 4): a CSB configuration bus on the CPU side, a 1-bit interrupt, and
// two memory interfaces — DBBIF (activations and outputs) and SRAMIF
// (weights) — both connected to the simulated SoC memory system. The model
// executes convolution layers tile by tile: each tile fetches its working
// set over the AXI-style interfaces, occupies the 2048-MAC array for a
// configured number of cycles, and streams outputs back, so its memory
// demand and memory-level parallelism (bounded by the framework's
// max-in-flight limit) reproduce the behaviour the paper's design-space
// exploration measures.
package nvdla

import (
	"fmt"

	"gem5rtl/internal/obs"
	"gem5rtl/internal/rtlobject"
)

// CSB register map (byte offsets).
const (
	RegCtrl          = 0x00 // write 1: start executing committed layers
	RegStatus        = 0x04 // bit0: done, bit1: running
	RegIrqClear      = 0x08 // write 1: deassert interrupt
	RegInAddrLo      = 0x10
	RegInAddrHi      = 0x14
	RegWtAddrLo      = 0x18
	RegWtAddrHi      = 0x1C
	RegOutAddrLo     = 0x20
	RegOutAddrHi     = 0x24
	RegInBytes       = 0x28
	RegWtBytes       = 0x2C
	RegOutBytes      = 0x30
	RegTileBytes     = 0x34
	RegCyclesPerTile = 0x38
	RegLayerCommit   = 0x3C // write 1: enqueue the staged layer
	RegPerfCycles    = 0x40 // read: total busy (compute) cycles
	RegPerfStalls    = 0x44 // read: cycles stalled waiting for memory
)

// Memory-side port assignment (Figure 4): DBBIF carries activations and
// output writes; SRAMIF carries weights.
const (
	PortDBBIF  = 0
	PortSRAMIF = 1
)

// MACs is the nv_full configuration of Table 1 (2048 8-bit MACs).
const MACs = 2048

// Config tunes the accelerator model.
type Config struct {
	Name string
	// PrefetchTiles is how many tiles ahead the load engine may run.
	PrefetchTiles int
	// IssuePerTick caps new memory requests generated per cycle.
	IssuePerTick int
}

// DefaultConfig returns the standard model configuration.
func DefaultConfig(name string) Config {
	return Config{Name: name, PrefetchTiles: 4, IssuePerTick: 8}
}

// Stats describes one accelerator's execution.
type Stats struct {
	BusyCycles   uint64 // MAC array occupied
	StallCycles  uint64 // runnable but waiting for tile data
	IdleCycles   uint64
	BytesRead    uint64
	BytesWritten uint64
	TilesDone    uint64
	LayersDone   uint64
}

type layerCfg struct {
	inAddr, wtAddr, outAddr    uint64
	inBytes, wtBytes, outBytes uint32
	tileBytes                  uint32
	cyclesPerTile              uint32
}

type tileState struct {
	needed  int // bytes to fetch
	arrived int
	issued  int
}

// Wrapper is the NVDLA shared-library wrapper (Figure 4): NVIDIA's
// nvdla.cpp AXI/CSB adapters folded into the gem5rtl tick/reset protocol.
// It implements rtlobject.Wrapper.
type Wrapper struct {
	cfg Config

	// CSB staging + committed layers.
	staged layerCfg
	layers []layerCfg

	running bool
	done    bool
	irq     bool

	// Current layer execution state.
	layerIdx    int
	tiles       []tileState
	outPerTile  int
	fetchTile   int // next tile to issue reads for
	computeTile int // next tile to compute
	computeLeft uint32
	inCur       uint64 // read cursors
	wtCur       uint64
	inEnd       uint64
	wtEnd       uint64
	outCur      uint64
	nextID      uint64
	reads       readTable // outstanding reads: ID → tile
	writesOut   int
	pendWrites  []rtlobject.MemRequest
	// pendHead is the drain point of pendWrites; the backing array is
	// reused instead of re-sliced away.
	pendHead int

	// out is the Output returned from every Tick, reused with its slices
	// reset: the RTLObject copies the elements out before the next tick.
	out rtlobject.Output

	// trace is the NVDLA debug-flag logger (nil = off; see AttachTracer).
	// It is preserved across Reset.
	trace *obs.Logger

	stats Stats
}

// New creates an NVDLA wrapper.
func New(cfg Config) *Wrapper {
	if cfg.PrefetchTiles == 0 {
		cfg.PrefetchTiles = 4
	}
	if cfg.IssuePerTick == 0 {
		cfg.IssuePerTick = 8
	}
	return &Wrapper{cfg: cfg}
}

// Name implements rtlobject.Wrapper.
func (w *Wrapper) Name() string { return w.cfg.Name }

// Stats returns execution counters.
func (w *Wrapper) Stats() Stats { return w.stats }

// Done reports completion of all committed layers.
func (w *Wrapper) Done() bool { return w.done }

// Reset implements rtlobject.Wrapper.
func (w *Wrapper) Reset() {
	*w = Wrapper{cfg: w.cfg, trace: w.trace}
}

// WriteReg applies a CSB register write (also reachable via CPU-side port
// packets; this direct entry is the trace player's fast path). It goes
// behind the RTLObject's back: on a system that has been running, call the
// object's Wake first (soc.PlayTrace does), or a model asleep on its Quiet
// promise never sees the write.
func (w *Wrapper) WriteReg(addr uint64, val uint32) {
	switch addr {
	case RegCtrl:
		if val&1 != 0 && len(w.layers) > 0 {
			w.running = true
			w.done = false
			w.layerIdx = 0
			w.beginLayer()
		}
	case RegIrqClear:
		w.irq = false
	case RegInAddrLo:
		w.staged.inAddr = w.staged.inAddr&^0xFFFFFFFF | uint64(val)
	case RegInAddrHi:
		w.staged.inAddr = w.staged.inAddr&0xFFFFFFFF | uint64(val)<<32
	case RegWtAddrLo:
		w.staged.wtAddr = w.staged.wtAddr&^0xFFFFFFFF | uint64(val)
	case RegWtAddrHi:
		w.staged.wtAddr = w.staged.wtAddr&0xFFFFFFFF | uint64(val)<<32
	case RegOutAddrLo:
		w.staged.outAddr = w.staged.outAddr&^0xFFFFFFFF | uint64(val)
	case RegOutAddrHi:
		w.staged.outAddr = w.staged.outAddr&0xFFFFFFFF | uint64(val)<<32
	case RegInBytes:
		w.staged.inBytes = val
	case RegWtBytes:
		w.staged.wtBytes = val
	case RegOutBytes:
		w.staged.outBytes = val
	case RegTileBytes:
		w.staged.tileBytes = val
	case RegCyclesPerTile:
		w.staged.cyclesPerTile = val
	case RegLayerCommit:
		if val&1 != 0 {
			w.layers = append(w.layers, w.staged)
		}
	}
}

// ReadReg returns a CSB register value.
func (w *Wrapper) ReadReg(addr uint64) uint32 {
	switch addr {
	case RegStatus:
		var v uint32
		if w.done {
			v |= 1
		}
		if w.running {
			v |= 2
		}
		return v
	case RegPerfCycles:
		return uint32(w.stats.BusyCycles)
	case RegPerfStalls:
		return uint32(w.stats.StallCycles)
	}
	return 0
}

// beginLayer initialises tiling for layer layerIdx.
func (w *Wrapper) beginLayer() {
	l := w.layers[w.layerIdx]
	total := int(l.inBytes) + int(l.wtBytes)
	tb := int(l.tileBytes)
	if tb <= 0 {
		tb = total
	}
	ntiles := (total + tb - 1) / tb
	if ntiles == 0 {
		ntiles = 1
	}
	if cap(w.tiles) < ntiles {
		w.tiles = make([]tileState, ntiles)
	} else {
		w.tiles = w.tiles[:ntiles]
		clear(w.tiles)
	}
	for i := range w.tiles {
		need := tb
		if i == ntiles-1 {
			need = total - tb*(ntiles-1)
		}
		w.tiles[i].needed = need
	}
	w.outPerTile = int(l.outBytes) / ntiles
	w.fetchTile = 0
	w.computeTile = 0
	w.computeLeft = 0
	w.inCur = l.inAddr
	w.wtCur = l.wtAddr
	w.inEnd = l.inAddr + uint64(l.inBytes)
	w.wtEnd = l.wtAddr + uint64(l.wtBytes)
	w.outCur = l.outAddr
	if w.trace.On() {
		w.trace.Logf("layer %d begin: %d tiles, in=%d wt=%d out=%d bytes",
			w.layerIdx, len(w.tiles), l.inBytes, l.wtBytes, l.outBytes)
	}
}

// Tick implements rtlobject.Wrapper: one 1 GHz accelerator cycle.
func (w *Wrapper) Tick(in *rtlobject.Input) *rtlobject.Output {
	out := &w.out
	out.MemRequests = out.MemRequests[:0]
	out.CPUResponses = out.CPUResponses[:0]
	out.Interrupt = false
	// CSB traffic via the CPU-side port.
	for _, req := range in.CPURequests {
		if req.Write {
			var v uint32
			for i := 0; i < len(req.Data) && i < 4; i++ {
				v |= uint32(req.Data[i]) << (8 * i)
			}
			w.WriteReg(req.Addr&0xFF, v)
			out.CPUResponses = append(out.CPUResponses, rtlobject.CPUResponse{ID: req.ID})
		} else {
			v := w.ReadReg(req.Addr & 0xFF)
			out.CPUResponses = append(out.CPUResponses, rtlobject.CPUResponse{
				ID:   req.ID,
				Data: []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)},
			})
		}
	}
	w.absorb(in.MemResponses)
	if !w.running {
		w.stats.IdleCycles++
		out.Interrupt = w.irq
		return out
	}

	// Compute engine.
	switch {
	case w.computeLeft > 0:
		w.computeLeft--
		w.stats.BusyCycles++
		if w.computeLeft == 0 {
			w.finishTile(out)
		}
	case w.computeTile < len(w.tiles) &&
		w.tiles[w.computeTile].arrived >= w.tiles[w.computeTile].needed:
		w.computeLeft = w.layers[w.layerIdx].cyclesPerTile
		if w.computeLeft == 0 {
			w.finishTile(out)
		} else {
			w.computeLeft--
			w.stats.BusyCycles++
			if w.computeLeft == 0 {
				w.finishTile(out)
			}
		}
	default:
		w.stats.StallCycles++
	}

	// Load engine: issue reads for tiles within the prefetch window.
	budget := w.cfg.IssuePerTick
	for budget > 0 && w.fetchTile < len(w.tiles) &&
		w.fetchTile < w.computeTile+w.cfg.PrefetchTiles {
		t := &w.tiles[w.fetchTile]
		if t.issued >= t.needed {
			w.fetchTile++
			continue
		}
		req, ok := w.nextRead(w.fetchTile)
		if !ok {
			w.fetchTile++
			continue
		}
		out.MemRequests = append(out.MemRequests, req)
		budget--
	}
	// Store engine: drain pending output writes.
	for budget > 0 && w.pendHead < len(w.pendWrites) {
		out.MemRequests = append(out.MemRequests, w.pendWrites[w.pendHead])
		w.pendWrites[w.pendHead] = rtlobject.MemRequest{}
		w.pendHead++
		budget--
	}
	if w.pendHead == len(w.pendWrites) {
		w.pendWrites = w.pendWrites[:0]
		w.pendHead = 0
	}

	// Layer / workload completion.
	if w.computeTile >= len(w.tiles) && w.pendHead == len(w.pendWrites) && w.writesOut == 0 {
		w.stats.LayersDone++
		if w.trace.On() {
			w.trace.Logf("layer %d done (%d tiles)", w.layerIdx, w.stats.TilesDone)
		}
		w.layerIdx++
		if w.layerIdx < len(w.layers) {
			w.beginLayer()
		} else {
			w.running = false
			w.done = true
			w.irq = true
			if w.trace.On() {
				w.trace.Logf("workload done: %d layers, irq raised", len(w.layers))
			}
		}
	}
	out.Interrupt = w.irq
	return out
}

// absorb is the memory-response half of a cycle: write acks retire output
// writes, read data fills the tile it was fetched for.
func (w *Wrapper) absorb(resps []rtlobject.MemResponse) {
	for _, resp := range resps {
		if resp.Write {
			w.writesOut--
			continue
		}
		tile, ok := w.reads.take(resp.ID)
		if !ok {
			panic(fmt.Sprintf("nvdla %s: response for unknown read %d", w.cfg.Name, resp.ID))
		}
		w.tiles[tile].arrived += len(resp.Data)
		w.stats.BytesRead += uint64(len(resp.Data))
	}
}

// Quiet implements rtlobject.Sleeper. Between two inputs the model is in one
// of four states whose cycles only move counters, read off the fields Tick
// itself switches on:
//
//   - idle (not running): IdleCycles, for ever; nothing wakes it but a CSB
//     request, which always does;
//   - computing a tile: BusyCycles while computeLeft counts down — quiet up
//     to, not including, the cycle that takes it to zero and retires the
//     tile; read data for later tiles and write acks change nothing it looks
//     at before then;
//   - starved (next tile's data not all here): StallCycles until read data
//     arrives;
//   - draining (every tile computed, output writes outstanding): StallCycles
//     until a write ack arrives.
//
// None of them is quiet while the load engine has a read to issue or the
// store engine a write to hand over.
func (w *Wrapper) Quiet() (uint64, rtlobject.InputKind) {
	if !w.running {
		return rtlobject.Forever, 0
	}
	if _, idle := w.quietFetch(); !idle || w.pendHead < len(w.pendWrites) {
		return 0, 0
	}
	switch {
	case w.computeLeft > 0:
		return uint64(w.computeLeft - 1), 0
	case w.computeTile >= len(w.tiles):
		return rtlobject.Forever, rtlobject.WriteAck
	case w.tiles[w.computeTile].arrived < w.tiles[w.computeTile].needed:
		return rtlobject.Forever, rtlobject.ReadData
	}
	return 0, 0 // the next cycle starts a tile
}

// Advance implements rtlobject.Sleeper: n cycles of the state Quiet reported,
// the first of them receiving held.
func (w *Wrapper) Advance(n uint64, held []rtlobject.MemResponse) {
	w.absorb(held)
	switch {
	case !w.running:
		w.stats.IdleCycles += n
		return
	case w.computeLeft > 0:
		w.computeLeft -= uint32(n)
		w.stats.BusyCycles += n
	default:
		w.stats.StallCycles += n
	}
	w.fetchTile, _ = w.quietFetch()
}

// quietFetch reports whether the load engine's next cycle issues nothing,
// and where that cycle leaves fetchTile: a load engine with nothing to issue
// still steps over the tiles of its window that are fully issued (or that
// both streams have run dry for), and fetchTile is checkpointed state.
func (w *Wrapper) quietFetch() (int, bool) {
	f := w.fetchTile
	for f < len(w.tiles) && f < w.computeTile+w.cfg.PrefetchTiles {
		if t := &w.tiles[f]; t.issued < t.needed && (w.inCur < w.inEnd || w.wtCur < w.wtEnd) {
			return f, false
		}
		f++
	}
	return f, true
}

// nextRead builds the next 64-byte read for a tile, alternating the
// activation (DBBIF) and weight (SRAMIF) streams.
func (w *Wrapper) nextRead(tile int) (rtlobject.MemRequest, bool) {
	t := &w.tiles[tile]
	var addr uint64
	var prt int
	switch {
	case w.inCur < w.inEnd && (w.wtCur >= w.wtEnd || (t.issued/64)%3 != 2):
		// Roughly 2/3 activations, 1/3 weights, matching the byte split.
		addr = w.inCur
		w.inCur += 64
		prt = PortDBBIF
	case w.wtCur < w.wtEnd:
		addr = w.wtCur
		w.wtCur += 64
		prt = PortSRAMIF
	default:
		return rtlobject.MemRequest{}, false
	}
	w.nextID++
	id := w.nextID
	w.reads.put(id, tile)
	t.issued += 64
	return rtlobject.MemRequest{ID: id, Addr: addr, Size: 64, Port: prt}, true
}

// finishTile retires the current compute tile and queues its output writes.
// The last tile carries any remainder so the whole OutBytes is written.
func (w *Wrapper) finishTile(out *rtlobject.Output) {
	w.stats.TilesDone++
	if w.trace.On() {
		w.trace.Logf("tile %d/%d done", w.computeTile+1, len(w.tiles))
	}
	outBytes := w.outPerTile
	if w.computeTile == len(w.tiles)-1 {
		outBytes = int(w.layers[w.layerIdx].outBytes) - w.outPerTile*(len(w.tiles)-1)
	}
	for b := 0; b < outBytes; b += 64 {
		n := outBytes - b
		if n > 64 {
			n = 64
		}
		w.nextID++
		w.pendWrites = append(w.pendWrites, rtlobject.MemRequest{
			ID: w.nextID, Addr: w.outCur, Size: n, Write: true,
			Data: outputPayload[:n:n], Port: PortDBBIF,
		})
		w.outCur += uint64(n)
		w.writesOut++
		w.stats.BytesWritten += uint64(n)
	}
	w.computeTile++
}

// outputPayload is every output write's payload: the model computes traffic,
// not values, so each write stores zeros. The writes share it read-only; the
// RTLObject writes a write's payload into the store when the memory side
// accepts it.
var outputPayload [64]byte
