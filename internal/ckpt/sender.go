package ckpt

import "fmt"

// SenderState is implemented by packet sender-state values that survive
// checkpointing. Sender-state stacks carry routing bookkeeping (which port a
// response returns through, which register a load targets), so in-flight
// packets cannot be serialised without them. Each concrete type claims a
// stream-wide kind tag and registers a constructor; the set of types is
// closed and small (CPU load state, crossbar routing, raw request IDs).
type SenderState interface {
	// SenderStateKind returns the type's registered kind tag.
	SenderStateKind() uint8
	// Checkpoint saves or restores the value's fields.
	Checkpoint(s *Stream)
}

// Reserved sender-state kind tags. A RawU64SenderState entry is a bare
// uint64 (an RTLObject request ID) and needs no registration; component
// packages register their own tags in init().
const (
	RawU64SenderState uint8 = 0
	CPULoadState      uint8 = 1
	XbarFrontState    uint8 = 2
)

var senderStates [256]func() SenderState

// RegisterSenderState installs the constructor of a kind tag's zero value.
// Called from package init(); double registration is a programming error.
func RegisterSenderState(kind uint8, zero func() SenderState) {
	if senderStates[kind] != nil {
		panic(fmt.Sprintf("ckpt: sender-state kind %d registered twice", kind))
	}
	senderStates[kind] = zero
}

// SenderState saves or restores one sender-state stack entry: its kind tag,
// then its fields. Saving, the entry must be a bare uint64 or a SenderState;
// restoring, a kind tag nothing registered fails the stream.
func (s *Stream) SenderState(v *any) {
	var kind uint8
	if x, ok := (*v).(SenderState); ok {
		kind = x.SenderStateKind()
	} else if _, raw := (*v).(uint64); !raw && !s.Restoring() {
		s.Fail(fmt.Errorf("ckpt: non-checkpointable sender state %T", *v))
		return
	}
	s.U8(&kind)
	if s.Restoring() && kind != RawU64SenderState {
		zero := senderStates[kind]
		if zero == nil {
			s.Fail(fmt.Errorf("ckpt: no constructor for sender-state kind %d", kind))
			return
		}
		*v = zero()
	}
	if x, ok := (*v).(SenderState); ok {
		x.Checkpoint(s)
		return
	}
	id, _ := (*v).(uint64)
	s.U64(&id)
	if s.Restoring() {
		*v = id
	}
}
