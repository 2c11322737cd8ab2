package rtl

import (
	"fmt"
	"hash/fnv"
	"io"

	"gem5rtl/internal/ckpt"
)

// Checkpointing serialises a model's architectural state (cycle counter,
// signal values, memory contents) so a long RTL simulation can be suspended
// and resumed — one of the Verilator features the paper lists as exposed
// through the framework. The format embeds a structural fingerprint of the
// circuit so a checkpoint cannot be restored into a different design.

const ckptMagic = 0x67656d35 // "gem5"

// fingerprint hashes the circuit structure (names, widths, counts).
func (c *Circuit) fingerprint() uint64 {
	h := fnv.New64a()
	io.WriteString(h, c.Name)
	for _, s := range c.Signals {
		fmt.Fprintf(h, "|%s:%d:%d", s.Name, s.Width, s.Kind)
	}
	for _, m := range c.Mems {
		fmt.Fprintf(h, "|%s:%dx%d", m.Name, m.Depth, m.Width)
	}
	fmt.Fprintf(h, "|%d:%d:%d", len(c.Combs), len(c.Seqs), len(c.MemWrites))
	return h.Sum64()
}

// Checkpoint saves or restores the model state: a header (magic, circuit
// fingerprint, cycle, signal and memory counts), the signal values, then
// each memory's depth and words. A restore fails unless the checkpoint was
// taken from a structurally identical circuit. gem5rtl rtlsim writes the
// stream bare to a file; a wrapper writes it inside its own section.
func (m *Model) Checkpoint(s *ckpt.Stream) error {
	magic, fp, cycle := uint64(ckptMagic), m.c.fingerprint(), m.cycle
	nv, nm := uint64(len(m.vals)), uint64(len(m.mems))
	s.U64(&magic)
	s.U64(&fp)
	s.U64(&cycle)
	s.U64(&nv)
	s.U64(&nm)
	if s.Restoring() && s.Err() == nil {
		switch {
		case magic != ckptMagic:
			s.Fail(fmt.Errorf("rtl: not a gem5rtl checkpoint (magic %#x)", magic))
		case fp != m.c.fingerprint():
			s.Fail(fmt.Errorf("rtl: checkpoint is for a different circuit"))
		case nv != uint64(len(m.vals)) || nm != uint64(len(m.mems)):
			s.Fail(fmt.Errorf("rtl: checkpoint shape mismatch"))
		default:
			m.cycle = cycle
		}
	}
	for i := range m.vals {
		s.U64(&m.vals[i])
	}
	for i, words := range m.mems {
		depth := uint64(len(words))
		s.U64(&depth)
		if s.Err() == nil && depth != uint64(len(words)) {
			s.Fail(fmt.Errorf("rtl: checkpoint mem %d depth mismatch", i))
		}
		for j := range words {
			s.U64(&words[j])
		}
	}
	if !s.Restoring() || s.Err() != nil {
		return s.Err()
	}
	m.backend.Invalidate()
	m.Eval()
	// An attached VCD writer keeps a last-value snapshot for change
	// detection; realign it so the next dump emits deltas against the
	// restored state instead of the pre-restore one.
	if m.vcd != nil {
		m.vcd.Resync(m)
	}
	return nil
}
