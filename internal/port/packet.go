// Package port implements gem5-style timing ports and packets: the transport
// layer every gem5rtl component (CPUs, caches, crossbars, memory controllers,
// and the RTLObject bridge) uses to exchange memory traffic. It reproduces
// the essential gem5 semantics the paper's framework relies on:
//
//   - Packets carry a command, address, size and payload, plus a sender-state
//     stack so intermediate components can route responses back.
//   - Timing accesses may be refused (SendTimingReq returns false); the
//     refused sender must wait for a retry callback before resending. This
//     back-pressure is what propagates MSHR and memory-queue occupancy limits
//     through the system and makes the max-in-flight DSE meaningful.
//   - Functional accesses move data immediately with no timing, used to load
//     program images and NVDLA traces into memory.
package port

import (
	"sync/atomic"

	"gem5rtl/internal/sim"
)

// Cmd enumerates packet commands, a condensed version of gem5's MemCmd.
type Cmd int

// Packet commands.
const (
	ReadReq Cmd = iota
	ReadResp
	WriteReq
	WriteResp
	// WritebackDirty is a cache writeback; it expects no response.
	WritebackDirty
	// PrefetchReq is a read issued by a prefetcher; responses carry data.
	PrefetchReq
)

// String names the command for traces and error messages.
func (c Cmd) String() string {
	switch c {
	case ReadReq:
		return "ReadReq"
	case ReadResp:
		return "ReadResp"
	case WriteReq:
		return "WriteReq"
	case WriteResp:
		return "WriteResp"
	case WritebackDirty:
		return "WritebackDirty"
	case PrefetchReq:
		return "PrefetchReq"
	}
	return "UnknownCmd"
}

// IsRead reports whether the command moves data toward the requestor.
func (c Cmd) IsRead() bool { return c == ReadReq || c == ReadResp || c == PrefetchReq }

// IsWrite reports whether the command moves data toward memory.
func (c Cmd) IsWrite() bool { return c == WriteReq || c == WriteResp || c == WritebackDirty }

// IsResponse reports whether the command is a response.
func (c Cmd) IsResponse() bool { return c == ReadResp || c == WriteResp }

// NeedsResponse reports whether a request command expects a response packet.
func (c Cmd) NeedsResponse() bool { return c == ReadReq || c == WriteReq || c == PrefetchReq }

// Packet is the unit of communication between ports. A request packet is
// turned into its response in place by MakeResponse, preserving identity so
// senders can match responses to outstanding requests by pointer or ID.
//
// Ownership contract (see PERFORMANCE.md for the full model): a packet is
// owned by whoever created it until it is delivered; delivery of a response
// (or acceptance of a no-response request such as WritebackDirty) transfers
// ownership to the receiver, who must copy out any payload it wants to keep
// before returning. Packets obtained from a PacketPool are returned to their
// pool with Release by the final owner — the creating requestor once it has
// consumed the response, or the memory-side terminus for no-response
// commands. Release on a non-pooled packet is a no-op, so termini may
// release unconditionally.
type Packet struct {
	// ID is a unique (per PacketAllocator) identifier, handy for tracing.
	ID uint64
	// Cmd is the current command; flips to the response command in MakeResponse.
	Cmd Cmd
	// Addr is the (physical) byte address of the access.
	Addr uint64
	// Size is the access size in bytes.
	Size int
	// Data is the payload; len(Data) == Size for reads once responded.
	Data []byte
	// ReqTick records when the original request entered the system.
	ReqTick sim.Tick
	// RequestorID identifies the originating device (CPU n, NVDLA n, ...).
	RequestorID int

	senderState []any

	// pool, when non-nil, is the freelist this packet returns to on Release.
	pool   *PacketPool
	inPool bool
}

// PacketPool is a freelist of Packets for a single simulation's hot path.
// Unlike sync.Pool it is deterministic (no GC-driven eviction), single-
// threaded like the event queue that drives it, and checkpoint-safe: Get
// mints a fresh ID from the same global counter as NewPacket (or from the
// pool's own counter when SetIDSpace namespaced it), so the ID sequence of a
// pooled run is bit-identical to an unpooled one, and restored packets
// (LoadPacket) are simply unpooled.
//
// Pooled packets own their Data buffer: the capacity survives recycling, and
// AllocateData zero-fills reused capacity so observable contents match a
// fresh allocation. Callers must therefore never hand a pooled packet's Data
// slice to a component that retains it past the packet's release — copy out
// instead, which is what every delivery path in this codebase already does.
type PacketPool struct {
	free []*Packet

	// space, when non-zero, namespaces the pool's IDs: minted IDs are
	// space<<IDSpaceShift | ctr with a pool-local counter instead of draws
	// from the process-global counter. A namespaced allocator's ID sequence
	// depends only on its own allocation order — not on what any other
	// component, or another simulation in the same process, allocates in
	// between — so a device's packet IDs, and the checkpoint bytes that hold
	// them, are the same in every run of the same system. The counter is
	// component state: owners persist it via SaveCounter/RestoreCounter in
	// their own checkpoints.
	space uint64
	ctr   uint64
}

// IDSpaceShift positions a PacketPool ID-space tag in the top bits of a
// packet ID; the low bits hold the pool-local counter.
const IDSpaceShift = 48

// IDSpaceLocalMask masks the pool-local counter out of a namespaced ID.
const IDSpaceLocalMask = (uint64(1) << IDSpaceShift) - 1

// SetIDSpace namespaces the pool's packet IDs under the given non-zero space
// tag (see PacketPool). Must be set before the first Get and never changed.
func (pl *PacketPool) SetIDSpace(space uint64) {
	if space == 0 || space > ^uint64(0)>>IDSpaceShift {
		panic("port: PacketPool ID space out of range")
	}
	if pl.ctr != 0 {
		panic("port: SetIDSpace after packets were minted")
	}
	pl.space = space
}

// mintID draws the next packet ID: pool-local when namespaced, process-global
// otherwise.
func (pl *PacketPool) mintID() uint64 {
	if pl.space == 0 {
		return packetID.Add(1)
	}
	pl.ctr++
	return pl.space<<IDSpaceShift | pl.ctr
}

// SaveCounter saves the namespaced-ID counter into an owner's checkpoint
// section.
func (pl *PacketPool) SaveCounter() uint64 { return pl.ctr }

// RestoreCounter reinstates a counter saved by SaveCounter.
func (pl *PacketPool) RestoreCounter(v uint64) { pl.ctr = v }

// Get returns a packet with a fresh ID, either recycled or newly allocated.
// The packet's Data is empty (length 0); use AllocateData or append to fill
// it. The caller owns the packet until delivery transfers it (see Packet).
func (pl *PacketPool) Get(cmd Cmd, addr uint64, size int) *Packet {
	n := len(pl.free)
	if n == 0 {
		return &Packet{ID: pl.mintID(), Cmd: cmd, Addr: addr, Size: size, pool: pl}
	}
	p := pl.free[n-1]
	pl.free[n-1] = nil
	pl.free = pl.free[:n-1]
	p.inPool = false
	p.ID = pl.mintID()
	p.Cmd = cmd
	p.Addr = addr
	p.Size = size
	p.Data = p.Data[:0]
	p.ReqTick = 0
	p.RequestorID = 0
	return p
}

// NewWrite allocates an unpooled write packet (the slice is not copied) with
// an ID minted from the pool's namespace. It exists so a namespaced
// component's writes draw from the same deterministic per-component ID
// sequence as its pooled reads instead of the process-global counter.
//
// The packet comes in one allocation with room for two sender states — the
// issuing bridge's and one crossbar's — because, unlike a pooled read, it has
// no recycled stack to push onto and would otherwise grow one twice.
func (pl *PacketPool) NewWrite(addr uint64, data []byte) *Packet {
	w := &writePacket{Packet: Packet{ID: pl.mintID(), Cmd: WriteReq, Addr: addr, Size: len(data), Data: data}}
	w.senderState = w.stack[:0]
	return &w.Packet
}

// writePacket is NewWrite's allocation: a Packet and its sender-state stack's
// first backing array. Only these packets carry the extra words.
type writePacket struct {
	Packet
	stack [2]any
}

// GetRead is shorthand for Get(ReadReq, addr, size).
func (pl *PacketPool) GetRead(addr uint64, size int) *Packet {
	return pl.Get(ReadReq, addr, size)
}

// Release returns a pooled packet to its freelist; it is a no-op for packets
// not obtained from a PacketPool (NewPacket, LoadPacket), so termini can call
// it unconditionally. Only the current owner may release, and the packet must
// not be referenced afterwards: its ID, command and payload are reused by a
// future Get. Releasing twice panics — that always indicates an ownership
// bug. A packet whose pointer was captured by a checkpoint writer has already
// been serialised by value, so releasing it afterwards is safe.
func (p *Packet) Release() {
	if p.pool == nil {
		return
	}
	if p.inPool {
		panic("port: double Release of pooled packet")
	}
	for i := range p.senderState {
		p.senderState[i] = nil
	}
	p.senderState = p.senderState[:0]
	p.inPool = true
	p.pool.free = append(p.pool.free, p)
}

// packetID is process-global and atomic: concurrent simulations (the
// parallel sweep runner drives one event queue per goroutine) allocate from
// the same counter without racing. IDs are used only for identity — matching
// responses to requests and tracing — never for ordering or timing
// decisions, so the interleaving-dependent values cannot perturb simulated
// behaviour.
var packetID atomic.Uint64

// NewPacket allocates a packet with a fresh ID.
func NewPacket(cmd Cmd, addr uint64, size int) *Packet {
	return &Packet{ID: packetID.Add(1), Cmd: cmd, Addr: addr, Size: size}
}

// NewWritePacket allocates a write carrying data (the slice is not copied).
func NewWritePacket(addr uint64, data []byte) *Packet {
	p := NewPacket(WriteReq, addr, len(data))
	p.Data = data
	return p
}

// NewReadPacket allocates a read of size bytes.
func NewReadPacket(addr uint64, size int) *Packet {
	return NewPacket(ReadReq, addr, size)
}

// NewFunctionalRead builds a read that does NOT consume a global packet ID
// (ID 0). Functional accesses complete synchronously inside a single call
// and never enter checkpointed state; minting IDs for them would make the
// ID sequence depend on host-side memoisation (for example the core's
// decode cache, which a restored run rebuilds lazily) and break bit-exact
// checkpoint/restore equivalence.
func NewFunctionalRead(addr uint64, size int) *Packet {
	return &Packet{Cmd: ReadReq, Addr: addr, Size: size}
}

// NewFunctionalWrite builds a write that does NOT consume a global packet
// ID (ID 0); see NewFunctionalRead. The data slice is not copied.
func NewFunctionalWrite(addr uint64, data []byte) *Packet {
	return &Packet{Cmd: WriteReq, Addr: addr, Size: len(data), Data: data}
}

// PushSenderState saves routing state before forwarding a packet downstream;
// the matching PopSenderState retrieves it when the response comes back.
// This mirrors gem5's Packet::pushSenderState.
func (p *Packet) PushSenderState(s any) { p.senderState = append(p.senderState, s) }

// PopSenderState removes and returns the most recently pushed sender state.
// It panics if the stack is empty, which indicates a routing bug.
func (p *Packet) PopSenderState() any {
	n := len(p.senderState)
	if n == 0 {
		panic("port: PopSenderState on empty stack")
	}
	s := p.senderState[n-1]
	p.senderState[n-1] = nil
	p.senderState = p.senderState[:n-1]
	return s
}

// SenderStateDepth returns the current depth of the sender-state stack.
func (p *Packet) SenderStateDepth() int { return len(p.senderState) }

// MakeResponse converts a request packet into its response in place.
func (p *Packet) MakeResponse() {
	switch p.Cmd {
	case ReadReq, PrefetchReq:
		p.Cmd = ReadResp
	case WriteReq:
		p.Cmd = WriteResp
	default:
		panic("port: MakeResponse on non-request " + p.Cmd.String())
	}
}

// IsResponse reports whether the packet currently holds a response.
func (p *Packet) IsResponse() bool { return p.Cmd.IsResponse() }

// NeedsResponse reports whether this packet must be answered.
func (p *Packet) NeedsResponse() bool { return p.Cmd.NeedsResponse() }

// AllocateData ensures p.Data has Size bytes of zeroed-or-filled storage
// (for reads being filled). Pooled packets reuse their recycled capacity,
// zeroing it so contents are indistinguishable from a fresh allocation;
// non-pooled packets keep the historical make() behaviour because their Data
// may alias a caller's buffer that must not be scribbled on.
func (p *Packet) AllocateData() {
	if len(p.Data) == p.Size {
		return
	}
	if p.pool != nil && cap(p.Data) >= p.Size {
		p.Data = p.Data[:p.Size]
		for i := range p.Data {
			p.Data[i] = 0
		}
		return
	}
	p.Data = make([]byte, p.Size)
}

// BlockAddr returns the address rounded down to a blkSize boundary.
func BlockAddr(addr uint64, blkSize int) uint64 {
	return addr &^ (uint64(blkSize) - 1)
}
