// Full-system checkpoint/restore. A checkpoint captures the entire simulated
// machine — event queue, cores, cache hierarchies, interconnect, memory
// controller and backing store, and every RTL device including the compiled
// model state — so a run can be suspended at tick T and resumed in a fresh
// process with bit-identical statistics and final state.
//
// The stream begins with the ckpt framework header whose fingerprint hashes
// the behaviour-affecting Config fields: a checkpoint refuses to load into a
// differently-shaped system. Components follow in a fixed build order, each
// framed by a named section marker so corruption or version skew surfaces as
// a precise error instead of silently misaligned state.
//
// Restore must target a freshly Built system: the event queue insists on
// being pristine, and callers must not re-run setup that a live run already
// performed (LoadProgram/StartCores, accelerator Start/PlayTrace, PMU Start
// and register programming) — all of that state comes from the checkpoint.
package soc

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"gem5rtl/internal/ckpt"
)

// fingerprint hashes the Config fields that determine simulated behaviour.
// PMUWaveform/PMUWaveOut are host-side observability and deliberately
// excluded: a run may be checkpointed without waveforms and restored with
// them (the VCD writer is re-synced on restore; see rtl.VCDWriter.Resync).
// The hash covers the modelled machine only, nothing about how the host
// executes it, so a checkpoint loads wherever the same machine is built.
func (cfg Config) fingerprint() uint64 {
	memName := cfg.Memory
	if memName == "" {
		memName = "ideal"
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "soc|%d|%d|%s|%t|%d|%d|%t",
		cfg.Cores, cfg.CoreFreqHz, memName, cfg.WithPMU,
		cfg.NVDLAs, cfg.NVDLAMaxInflight, cfg.NVDLAScratchpad)
	return h.Sum64()
}

// components returns every Checkpointable in the system in its fixed
// serialisation order.
func (s *System) components() []ckpt.Checkpointable {
	cs := []ckpt.Checkpointable{s.Queue}
	for i := range s.Cores {
		cs = append(cs, s.Cores[i], s.L1Is[i], s.L1Ds[i], s.L2s[i], s.L2Muxes[i])
	}
	cs = append(cs, s.LLC, s.CPUXbar, s.MemXbar)
	if s.DRAM != nil {
		cs = append(cs, s.DRAM)
	} else {
		cs = append(cs, s.Ideal)
	}
	cs = append(cs, s.Store)
	if s.PMU != nil {
		cs = append(cs, s.PMU)
	}
	for _, o := range s.NVDLAs {
		cs = append(cs, o)
	}
	for _, sp := range s.Scratchpads {
		cs = append(cs, sp)
	}
	return cs
}

// Save writes a checkpoint of the whole system to out.
func (s *System) Save(out io.Writer) error {
	w := ckpt.NewWriter(out)
	w.Header(s.Cfg.fingerprint(), uint64(s.Queue.Now()))
	// The system's space-0 packet-ID counter: restore reinstates it so IDs
	// allocated after resume never collide with checkpointed in-flight
	// packets.
	w.U64(s.Queue.PacketIDs())
	for _, c := range s.components() {
		if err := c.SaveState(w); err != nil {
			return err
		}
	}
	// Observability state travels only when a latency profile is attached;
	// plain runs keep the seed stream layout byte-for-byte. A checkpoint
	// written with a profile must be restored into a system with the same
	// profile topology attached (AttachLatencyProfile before Restore).
	if s.Latency != nil {
		if err := s.Latency.SaveState(w); err != nil {
			return err
		}
	}
	w.Section("soc.end")
	if err := w.Err(); err != nil {
		return err
	}
	return w.Flush()
}

// Restore loads a checkpoint into a freshly built system of identical
// configuration and returns the checkpointed tick.
func (s *System) Restore(in io.Reader) (uint64, error) {
	r := ckpt.NewReader(in)
	tick := r.Header(s.Cfg.fingerprint())
	if err := r.Err(); err != nil {
		return 0, err
	}
	s.Queue.SetPacketIDs(r.U64())
	for _, c := range s.components() {
		if err := c.RestoreState(r); err != nil {
			return 0, err
		}
	}
	if s.Latency != nil {
		if err := s.Latency.RestoreState(r); err != nil {
			return 0, err
		}
	}
	r.Section("soc.end")
	return tick, r.Err()
}

// SaveFile checkpoints the system to a file.
func (s *System) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// RestoreFile loads a checkpoint file into a freshly built system.
func (s *System) RestoreFile(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return s.Restore(f)
}

// StateHash digests the full serialised system state — the
// restore-equivalence tests' "bit-identical" witness.
func (s *System) StateHash() (uint64, error) {
	h := fnv.New64a()
	if err := s.Save(h); err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}
