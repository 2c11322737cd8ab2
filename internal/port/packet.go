// Package port implements gem5-style timing ports and packets: the transport
// layer every gem5rtl component (CPUs, caches, crossbars, memory controllers,
// and the RTLObject bridge) uses to exchange memory traffic. It reproduces
// the essential gem5 semantics the paper's framework relies on:
//
//   - Packets carry a command, address and size, plus a sender-state stack
//     so intermediate components can route responses back. Only a device
//     register access carries a payload; memory traffic carries none, its
//     bytes live in mem.Storage.
//   - Timing accesses may be refused (SendTimingReq returns false); the
//     refused sender must wait for a retry callback before resending. This
//     back-pressure is what propagates MSHR and memory-queue occupancy limits
//     through the system and makes the max-in-flight DSE meaningful.
package port

import (
	"sync/atomic"

	"gem5rtl/internal/ckpt"
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
// Ownership contract (DESIGN.md §6.3 has the full model): a packet has one
// or more holders, and the last of them releases it. It is held by whoever
// created it until it is delivered; delivery of a response (or acceptance of
// a no-response request such as WritebackDirty) transfers it to the
// receiver, who must copy out any payload it wants to keep before returning.
// A component that keeps a packet after handing it on — a DRAM write queue
// keeps the posted write it has already answered — becomes one more holder
// with Retain. Packets obtained from a PacketPool go back to their pool on
// the last holder's Release: the creating requestor's once it has consumed
// the response, the memory-side terminus's for a no-response command, or
// the retaining component's when it is done. Release on a non-pooled packet
// is a no-op, so holders may release unconditionally.
type Packet struct {
	// ID is a unique (per PacketAllocator) identifier, handy for tracing.
	ID uint64
	// Cmd is the current command; flips to the response command in MakeResponse.
	Cmd Cmd
	// Addr is the (physical) byte address of the access.
	Addr uint64
	// Size is the access size in bytes.
	Size int
	// Data is the payload of a device register access (len(Data) == Size
	// for a read once responded). Memory traffic leaves it nil: the agents
	// that own the bytes read and write mem.Storage.
	Data []byte
	// ReqTick records when the original request entered the system.
	ReqTick sim.Tick
	// RequestorID identifies the originating device (CPU n, NVDLA n, ...).
	RequestorID int

	senderState []any

	// slot, when non-nil, is the pool allocation this packet lives in; it
	// returns there when holders drops to zero.
	slot    *pooledPacket
	holders int32
	// restored marks a packet restored from a checkpoint
	// (CheckpointPacket): traffic the checkpointed run started, which a
	// checker that never saw its request adopts instead of flagging.
	restored bool
}

// pooledPacket is a PacketPool's allocation: the packet, the first backing
// array of its sender-state stack — room for the issuing component's state
// and one crossbar's — and the payload of a block-sized access, so a packet
// in steady use never grows either.
type pooledPacket struct {
	Packet
	pool  *PacketPool
	stack [2]any
	buf   [64]byte
}

// PacketPool is a freelist of Packets for a single simulation's hot path.
// Like every sim.Freelist it is deterministic, single-threaded and grows in
// slabs. It is checkpoint-safe: Get mints a fresh ID from the space the pool
// was given — its own counter under a SetIDSpace tag, or the system's
// space-0 counter after ShareIDs — so a system's ID sequence depends only on
// its own run, and restored packets (CheckpointPacket) are simply unpooled.
// A pool given neither counts in space 0 on its own, which suits a rig with
// a single minter.
//
// Pooled packets own their Data buffer: the capacity survives recycling, and
// AllocateData zero-fills reused capacity so observable contents match a
// fresh allocation. Callers must therefore never hand a pooled packet's Data
// slice to a component that retains it past the packet's release — copy out
// instead, which is what every delivery path in this codebase already does.
type PacketPool struct {
	free sim.Freelist[pooledPacket]

	// space, when non-zero, namespaces the pool's IDs: minted IDs are
	// space<<IDSpaceShift | ctr with a pool-local counter. A namespaced
	// allocator's ID sequence depends only on its own allocation order — not
	// on what any other component allocates in between — so a device's
	// packet IDs are the same in every run of the same system. The counter
	// is component state: owners persist it via CheckpointCounter in their
	// own checkpoints.
	space uint64
	ctr   uint64
	// q, when set (ShareIDs), supplies space-0 IDs from the system's one
	// counter; the system's checkpoint persists it.
	q *sim.EventQueue
}

// IDSpaceShift positions a PacketPool ID-space tag in the top bits of a
// packet ID; the low bits hold the pool-local counter.
const IDSpaceShift = 48

// SetIDSpace namespaces the pool's packet IDs under the given non-zero space
// tag (see PacketPool). Must be set before the first Get and never changed.
func (pl *PacketPool) SetIDSpace(space uint64) {
	if space == 0 || space >= looseSpace {
		panic("port: PacketPool ID space out of range")
	}
	if pl.ctr != 0 || pl.q != nil {
		panic("port: SetIDSpace after packets were minted or IDs shared")
	}
	pl.space = space
}

// ShareIDs makes the pool mint space-0 IDs from q's counter
// (sim.EventQueue.MintPacketID), the one every space-0 minter of a system
// shares. Must be called before the first Get.
func (pl *PacketPool) ShareIDs(q *sim.EventQueue) {
	if pl.ctr != 0 || pl.space != 0 {
		panic("port: ShareIDs after packets were minted or on a namespaced pool")
	}
	pl.q = q
}

// mintID draws the next packet ID from the pool's space.
func (pl *PacketPool) mintID() uint64 {
	if pl.q != nil {
		return pl.q.MintPacketID()
	}
	pl.ctr++
	return pl.space<<IDSpaceShift | pl.ctr
}

// CheckpointCounter saves or restores the namespaced-ID counter in an
// owner's checkpoint section.
func (pl *PacketPool) CheckpointCounter(s *ckpt.Stream) { s.U64(&pl.ctr) }

// Get returns a packet with a fresh ID and one holder, the caller, who owns
// it until delivery transfers it (see Packet). The packet's Data is empty
// (length 0); use AllocateData or append to fill it.
func (pl *PacketPool) Get(cmd Cmd, addr uint64, size int) *Packet {
	s := pl.free.Get()
	if s.pool == nil {
		// A packet's first use. Its Data stays nil until AllocateData:
		// a checkpoint tells a nil payload from an empty one.
		s.pool = pl
		s.slot = s
		s.senderState = s.stack[:0]
	}
	p := &s.Packet
	p.holders = 1
	p.ID = pl.mintID()
	p.Cmd = cmd
	p.Addr = addr
	p.Size = size
	p.Data = p.Data[:0]
	p.ReqTick = 0
	p.RequestorID = 0
	return p
}

// GetRead is shorthand for Get(ReadReq, addr, size).
func (pl *PacketPool) GetRead(addr uint64, size int) *Packet {
	return pl.Get(ReadReq, addr, size)
}

// Release gives up the caller's hold on a pooled packet; the last holder's
// Release returns it to its pool. It is a no-op for packets not obtained
// from a PacketPool (NewPacket, CheckpointPacket), so holders can call it
// unconditionally. The caller must not reference the packet afterwards: once
// it is back in the pool, its ID, command and payload are reused by a future
// Get. Releasing more often than the packet was held panics — that always
// indicates an ownership bug. A packet whose pointer was captured by a
// checkpoint writer has already been serialised by value, so releasing it
// afterwards is safe.
func (p *Packet) Release() {
	s := p.slot
	if s == nil {
		return
	}
	if p.holders <= 0 {
		panic("port: Release of a pooled packet with no holder left")
	}
	p.holders--
	if p.holders > 0 {
		return
	}
	clear(p.senderState)
	p.senderState = p.senderState[:0]
	s.pool.free.Put(s)
}

// Retain adds a holder to a pooled packet (see Packet): a component that
// keeps the packet after handing it on calls it before the hand-off, and
// Release when it is done with it. A no-op for packets not obtained from a
// PacketPool.
func (p *Packet) Retain() {
	if p.slot == nil {
		return
	}
	if p.holders <= 0 {
		panic("port: Retain of a released packet")
	}
	p.holders++
}

// looseSpace is the ID space of packets made by NewPacket and its
// shorthands: packets built by hand outside any system — test rigs,
// examples. No PacketPool mints in it, so a loose packet's ID can never
// collide with a system's.
const looseSpace = ^uint64(0) >> IDSpaceShift

// looseID counts loose packets. It is atomic because rigs may run
// concurrently; no system reads it.
var looseID atomic.Uint64

// NewPacket allocates a loose packet with a fresh ID (see looseSpace).
// Components of a system mint from a PacketPool instead.
func NewPacket(cmd Cmd, addr uint64, size int) *Packet {
	return &Packet{ID: looseSpace<<IDSpaceShift | looseID.Add(1), Cmd: cmd, Addr: addr, Size: size}
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
// (for reads being filled). Pooled packets reuse their recycled capacity, or
// the payload buffer they carry, zeroing it so contents are
// indistinguishable from a fresh allocation; non-pooled packets keep the
// historical make() behaviour because their Data may alias a caller's buffer
// that must not be scribbled on.
func (p *Packet) AllocateData() {
	if len(p.Data) == p.Size {
		return
	}
	if s := p.slot; s != nil {
		if cap(p.Data) < p.Size && p.Size <= len(s.buf) {
			p.Data = s.buf[:0]
		}
		if cap(p.Data) >= p.Size {
			p.Data = p.Data[:p.Size]
			clear(p.Data)
			return
		}
	}
	p.Data = make([]byte, p.Size)
}

// BlockAddr returns the address rounded down to a blkSize boundary.
func BlockAddr(addr uint64, blkSize int) uint64 {
	return addr &^ (uint64(blkSize) - 1)
}
