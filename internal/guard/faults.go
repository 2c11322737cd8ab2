package guard

import (
	"fmt"

	"gem5rtl/internal/mem"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

// Outcome classifies one fault injection, following the standard
// fault-injection taxonomy.
type Outcome int

// Injection outcomes.
const (
	// Masked: the run completed with output identical to the fault-free
	// reference — the fault was architecturally absorbed.
	Masked Outcome = iota
	// Detected: an existing integrity check (a panic, a protocol checker)
	// caught the fault and aborted the run.
	Detected
	// Corrupted: the run completed but produced different output — silent
	// data corruption, the worst class.
	Corrupted
	// Hung: the run stopped making forward progress and was reaped by the
	// watchdog (or ran out its time limit).
	Hung
)

func (o Outcome) String() string {
	switch o {
	case Masked:
		return "masked"
	case Detected:
		return "detected"
	case Corrupted:
		return "corrupted"
	case Hung:
		return "hung"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// FaultKind enumerates the injectable fault models.
type FaultKind int

// Fault kinds.
const (
	// ReadPayloadFlip flips one bit of the data a read response on a port
	// delivers.
	ReadPayloadFlip FaultKind = iota
	// WritePayloadFlip flips one bit of the data a write on a port stores.
	WritePayloadFlip
	// DropResp swallows one response on a port (a lost transfer).
	DropResp
	// DupResp delivers one response twice (a replayed transfer).
	DupResp
	// DelayResp holds one response and re-delivers it Delay ticks later
	// (a latency fault).
	DelayResp
	// DRAMBitFlip flips one bit in backing store at Addr at simulated
	// time Tick.
	DRAMBitFlip
	// RTLStateFlip flips state bit Pick of an rtl.Model (register or memory
	// bit, see rtl.Model.InjectStateFlip) at simulated time Tick.
	RTLStateFlip
)

func (k FaultKind) String() string {
	switch k {
	case ReadPayloadFlip:
		return "read-payload-flip"
	case WritePayloadFlip:
		return "write-payload-flip"
	case DropResp:
		return "drop-resp"
	case DupResp:
		return "dup-resp"
	case DelayResp:
		return "delay-resp"
	case DRAMBitFlip:
		return "dram-bit-flip"
	case RTLStateFlip:
		return "rtl-state-flip"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault describes one deterministic injection. Which fields matter depends
// on Kind.
type Fault struct {
	Kind FaultKind
	// Link selects the tapped port for packet faults (campaign-defined
	// numbering, e.g. accelerator*2 + port index).
	Link int
	// PktIndex selects the Nth matching packet on the link (0-based).
	PktIndex uint64
	// Byte and Bit locate a payload flip (reduced modulo the payload size).
	Byte int
	Bit  uint
	// Addr locates a DRAM bit flip.
	Addr uint64
	// Tick schedules time-triggered faults (DRAMBitFlip, RTLStateFlip).
	Tick sim.Tick
	// Delay is the added latency of a DelayResp fault.
	Delay sim.Tick
	// Pick selects the flipped state bit of an RTLStateFlip.
	Pick uint64
}

func (f Fault) String() string {
	switch f.Kind {
	case ReadPayloadFlip, WritePayloadFlip:
		return fmt.Sprintf("%s link=%d pkt=%d byte=%d bit=%d", f.Kind, f.Link, f.PktIndex, f.Byte, f.Bit)
	case DropResp, DupResp:
		return fmt.Sprintf("%s link=%d pkt=%d", f.Kind, f.Link, f.PktIndex)
	case DelayResp:
		return fmt.Sprintf("%s link=%d pkt=%d delay=%dns", f.Kind, f.Link, f.PktIndex, uint64(f.Delay)/uint64(sim.Nanosecond))
	case DRAMBitFlip:
		return fmt.Sprintf("%s addr=%#x bit=%d tick=%d", f.Kind, f.Addr, f.Bit, f.Tick)
	case RTLStateFlip:
		return fmt.Sprintf("%s pick=%d tick=%d", f.Kind, f.Pick, f.Tick)
	}
	return f.Kind.String()
}

// RNG is a splitmix64 generator: tiny, fast, and fully determined by its
// seed, so campaigns reproduce bit-identically from a seed alone.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next value of the splitmix64 sequence.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64n returns a value in [0, n). n must be > 0.
func (r *RNG) Uint64n(n uint64) uint64 { return r.Uint64() % n }

// Intn returns a value in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int { return int(r.Uint64n(uint64(n))) }

// DeriveSeed mixes a campaign seed with a fault index into an independent
// per-fault stream seed.
func DeriveSeed(seed uint64, i int) uint64 {
	r := NewRNG(seed ^ (uint64(i)+1)*0xd6e8feb86659fd93)
	return r.Uint64()
}

// DeriveSeedString mixes a seed with a string key — a spec fingerprint, a
// component name — into an independent stream seed. The derivation depends
// only on (seed, key), never on host state, so schedules keyed by it (retry
// backoff, chaos injections) are deterministic at any worker count. The key
// bytes are folded FNV-style and finished through a splitmix64 step so
// near-identical keys land in unrelated streams.
func DeriveSeedString(seed uint64, key string) uint64 {
	h := seed ^ 0xcbf29ce484222325
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 0x100000001b3
	}
	return NewRNG(h).Uint64()
}

// PacketFaultTap implements port.LinkTap for the packet fault kinds: it
// counts matching responses and fires the configured fault on the
// PktIndex-th one. A tap whose index exceeds the link's actual traffic
// simply never fires (Fired stays false) and the injection classifies as
// masked.
//
// Packets carry no payload — the bytes live in the system's mem.Storage,
// which the requestor reads and writes — so a payload flip acts on the
// stored byte at Byte (modulo the access size). A write's flip lands when
// the write is acknowledged, after its requestor stored the bytes on
// acceptance. A read's flip holds only while the response is delivered:
// the requestor reads the flipped bit, and the store keeps the right one.
// That needs a requestor that takes every response and writes nothing it
// is reading while it does, as the RTLObject over a DMA engine's disjoint
// input and output regions.
type PacketFaultTap struct {
	F Fault
	// q, inj and store are set by Bind.
	q     *sim.EventQueue
	inj   *port.Injector
	store *mem.Storage
	// Fired reports whether the fault point was reached.
	Fired bool

	respSeen uint64
}

// Bind supplies the event queue and injector a DelayResp fault needs to
// re-deliver the held response, and the store a payload flip corrupts.
func (t *PacketFaultTap) Bind(q *sim.EventQueue, inj *port.Injector, store *mem.Storage) {
	t.q, t.inj, t.store = q, inj, store
}

// TapReq implements port.LinkTap: every packet fault acts on a response.
func (t *PacketFaultTap) TapReq(*port.Packet) port.TapAction { return port.TapPass }

// TapResp implements port.LinkTap.
func (t *PacketFaultTap) TapResp(pkt *port.Packet) port.TapAction {
	if (t.F.Kind == ReadPayloadFlip && pkt.Cmd != port.ReadResp) ||
		(t.F.Kind == WritePayloadFlip && pkt.Cmd != port.WriteResp) {
		return port.TapPass
	}
	match := t.respSeen == t.F.PktIndex && !t.Fired
	t.respSeen++
	if !match {
		return port.TapPass
	}
	t.Fired = true
	addr := pkt.Addr + uint64(t.F.Byte%max(pkt.Size, 1))
	switch t.F.Kind {
	case WritePayloadFlip:
		FlipBit(t.store, addr, t.F.Bit)
	case ReadPayloadFlip:
		FlipBit(t.store, addr, t.F.Bit)
		t.inj.DeliverResp(pkt)
		FlipBit(t.store, addr, t.F.Bit)
		return port.TapDrop
	case DropResp:
		return port.TapDrop
	case DupResp:
		return port.TapDup
	case DelayResp:
		if t.q == nil || t.inj == nil {
			return port.TapPass
		}
		held := pkt
		t.q.ScheduleOneShotOwned("guard.delay-resp", t.q.Now()+t.F.Delay,
			t.q.Owner("guard", "delay-resp"), func() {
				t.inj.DeliverResp(held)
			})
		return port.TapDrop
	}
	return port.TapPass
}

// FlipBit XORs bit (reduced modulo 8) into the stored byte at addr.
func FlipBit(store *mem.Storage, addr uint64, bit uint) {
	var b [1]byte
	store.Read(addr, b[:])
	b[0] ^= 1 << (bit % 8)
	store.Write(addr, b[:])
}
