package rtl

import "fmt"

// StateBits returns the total number of architectural state bits of the
// model: every sequential register bit plus every memory-array bit. This is
// the fault-injection address space of InjectStateFlip.
func (m *Model) StateBits() uint64 {
	var n uint64
	for _, sq := range m.c.Seqs {
		n += uint64(m.c.Signals[sq.Dst].Width)
	}
	for _, mem := range m.c.Mems {
		n += uint64(mem.Width) * uint64(mem.Depth)
	}
	return n
}

// InjectStateFlip flips one architectural state bit — registers first (in
// sequential-assignment order), then memory arrays — selected by pick modulo
// StateBits, then re-settles combinational logic so the fault propagates the
// way a real single-event upset would. It returns a description of the
// flipped site for fault-campaign reports, or "" if the model holds no state.
func (m *Model) InjectStateFlip(pick uint64) string {
	total := m.StateBits()
	if total == 0 {
		return ""
	}
	pick %= total
	for _, sq := range m.c.Seqs {
		w := uint64(m.c.Signals[sq.Dst].Width)
		if pick < w {
			m.vals[sq.Dst] ^= 1 << pick
			m.backend.Invalidate()
			m.Eval()
			return fmt.Sprintf("reg %s bit %d", m.c.Signals[sq.Dst].Name, pick)
		}
		pick -= w
	}
	for mi, mem := range m.c.Mems {
		bits := uint64(mem.Width) * uint64(mem.Depth)
		if pick < bits {
			addr := pick / uint64(mem.Width)
			bit := pick % uint64(mem.Width)
			m.mems[mi][addr] ^= 1 << bit
			m.backend.Invalidate()
			m.Eval()
			return fmt.Sprintf("mem %s[%d] bit %d", mem.Name, addr, bit)
		}
		pick -= bits
	}
	return ""
}
