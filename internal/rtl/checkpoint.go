package rtl

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
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

// SaveCheckpoint writes the model state to w.
func (m *Model) SaveCheckpoint(w io.Writer) error {
	hdr := []uint64{
		ckptMagic,
		m.c.fingerprint(),
		m.cycle,
		uint64(len(m.vals)),
		uint64(len(m.mems)),
	}
	for _, v := range hdr {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("rtl: checkpoint write: %w", err)
		}
	}
	if err := binary.Write(w, binary.LittleEndian, m.vals); err != nil {
		return fmt.Errorf("rtl: checkpoint write signals: %w", err)
	}
	for i, words := range m.mems {
		if err := binary.Write(w, binary.LittleEndian, uint64(len(words))); err != nil {
			return fmt.Errorf("rtl: checkpoint write mem %d: %w", i, err)
		}
		if err := binary.Write(w, binary.LittleEndian, words); err != nil {
			return fmt.Errorf("rtl: checkpoint write mem %d: %w", i, err)
		}
	}
	return nil
}

// RestoreCheckpoint reads model state previously written by SaveCheckpoint.
// It fails if the checkpoint was taken from a structurally different circuit.
func (m *Model) RestoreCheckpoint(r io.Reader) error {
	var hdr [5]uint64
	if err := binary.Read(r, binary.LittleEndian, hdr[:]); err != nil {
		return fmt.Errorf("rtl: checkpoint read: %w", err)
	}
	if hdr[0] != ckptMagic {
		return fmt.Errorf("rtl: not a gem5rtl checkpoint (magic %#x)", hdr[0])
	}
	if hdr[1] != m.c.fingerprint() {
		return fmt.Errorf("rtl: checkpoint is for a different circuit")
	}
	if hdr[3] != uint64(len(m.vals)) || hdr[4] != uint64(len(m.mems)) {
		return fmt.Errorf("rtl: checkpoint shape mismatch")
	}
	m.cycle = hdr[2]
	if err := binary.Read(r, binary.LittleEndian, m.vals); err != nil {
		return fmt.Errorf("rtl: checkpoint read signals: %w", err)
	}
	for i := range m.mems {
		var n uint64
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return fmt.Errorf("rtl: checkpoint read mem %d: %w", i, err)
		}
		if n != uint64(len(m.mems[i])) {
			return fmt.Errorf("rtl: checkpoint mem %d depth mismatch", i)
		}
		if err := binary.Read(r, binary.LittleEndian, m.mems[i]); err != nil {
			return fmt.Errorf("rtl: checkpoint read mem %d: %w", i, err)
		}
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
