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
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"hash/fnv"
	"io"
	"os"
	"slices"

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
	if err := s.checkpoint(ckpt.Saving(w)); err != nil {
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
	return tick, s.checkpoint(ckpt.Restoring(r))
}

// checkpoint saves or restores everything after the header, in one pass
// over the components.
func (s *System) checkpoint(st *ckpt.Stream) error {
	// The system's space-0 packet-ID counter: restore reinstates it so IDs
	// allocated after resume never collide with checkpointed in-flight
	// packets.
	ids := s.Queue.PacketIDs()
	st.U64(&ids)
	if st.Restoring() {
		s.Queue.SetPacketIDs(ids)
	}
	cs := s.components()
	// Observability state travels only when a latency profile is attached;
	// plain runs keep the seed stream layout byte-for-byte. A checkpoint
	// written with a profile must be restored into a system with the same
	// profile topology attached (AttachLatencyProfile before Restore).
	if s.Latency != nil {
		cs = append(cs, s.Latency)
	}
	for _, c := range cs {
		if err := c.Checkpoint(st); err != nil {
			return err
		}
	}
	st.Section("soc.end")
	return st.Err()
}

// A checkpoint file is Save's stream followed by a 12-byte integrity
// trailer: the stream's CRC-64/ECMA, little-endian, then a magic.
// RestoreFile checks the trailer before it decodes a byte, so a file that
// was torn, truncated or had a bit flipped on disk is refused whole instead
// of restoring a silently different machine. The trailer protects the bytes
// between SaveFile and RestoreFile, nothing more: it says nothing about who
// wrote the file, and a stream Restore reads from anywhere else carries no
// trailer at all.
const fileMagic = "gRCK"

var fileCRC = crc64.MakeTable(crc64.ECMA)

// sealSnapshot appends the integrity trailer to a checkpoint stream.
func sealSnapshot(blob []byte) []byte {
	sealed := binary.LittleEndian.AppendUint64(slices.Clip(blob), crc64.Checksum(blob, fileCRC))
	return append(sealed, fileMagic...)
}

// openSnapshot verifies and strips the integrity trailer of a checkpoint
// file's bytes.
func openSnapshot(data []byte) ([]byte, bool) {
	if len(data) < 12 || string(data[len(data)-4:]) != fileMagic {
		return nil, false
	}
	blob := data[: len(data)-12 : len(data)-12]
	if crc64.Checksum(blob, fileCRC) != binary.LittleEndian.Uint64(data[len(data)-12:]) {
		return nil, false
	}
	return blob, true
}

// SaveFile checkpoints the system to a file, sealed with the integrity
// trailer.
func (s *System) SaveFile(path string) error {
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, sealSnapshot(buf.Bytes()), 0o666)
}

// RestoreFile loads a checkpoint file SaveFile wrote into a freshly built
// system. A file whose integrity trailer does not verify is refused before
// anything is restored.
func (s *System) RestoreFile(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	blob, ok := openSnapshot(data)
	if !ok {
		return 0, fmt.Errorf("soc: %s: checkpoint integrity trailer does not verify (torn, corrupted or not written by SaveFile)", path)
	}
	return s.Restore(bytes.NewReader(blob))
}
