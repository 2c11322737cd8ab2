package soc

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gem5rtl/internal/conform"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/trace"
)

// TestSnapshotTrailerRoundTrip pins the seal/open contract: a sealed blob
// opens to the same bytes, and any single-bit flip anywhere in the sealed
// form — payload, CRC, magic — is rejected.
func TestSnapshotTrailerRoundTrip(t *testing.T) {
	blob := []byte("checkpoint stream payload bytes")
	sealed := sealSnapshot(blob)
	got, ok := openSnapshot(sealed)
	if !ok || string(got) != string(blob) {
		t.Fatalf("round trip failed: ok=%v got=%q", ok, got)
	}
	for bit := 0; bit < len(sealed)*8; bit += 7 {
		mut := append([]byte(nil), sealed...)
		mut[bit/8] ^= 1 << (bit % 8)
		if _, ok := openSnapshot(mut); ok {
			t.Fatalf("flip of bit %d went undetected", bit)
		}
	}
	if _, ok := openSnapshot([]byte("short")); ok {
		t.Error("trailer-less short input accepted")
	}
}

// corruptionPoint is the machine the corruption table damages, shaped like
// CI's NVDLA sanity3 save/restore point (two accelerators, one DDR4 channel,
// 32 reads in flight, scale 64) and saved at 1 µs.
func corruptionPoint() Config {
	cfg := DefaultConfig()
	cfg.Cores = 1
	cfg.Memory = "DDR4-1ch"
	cfg.NVDLAs = 2
	cfg.NVDLAMaxInflight = 32
	return cfg
}

// warmPoint builds corruptionPoint, starts its accelerators on sanity3 and
// runs it to 1 µs.
func warmPoint(t *testing.T) *System {
	t.Helper()
	cfg := corruptionPoint()
	s := MustBuild(cfg)
	for i := 0; i < cfg.NVDLAs; i++ {
		s.NVDLAs[i].Start()
		tr, err := trace.Scaled("sanity3", uint64(i+1)<<32, 64)
		if err != nil {
			t.Fatal(err)
		}
		s.PlayTrace(i, tr)
	}
	s.Queue.RunUntil(1 * sim.Microsecond)
	return s
}

// corrupt applies the next corruption of the seeded table to a copy of data:
// one to four single-bit flips, or a 4-byte run overwritten with 0xFF, at
// offsets drawn over the whole of data. It also describes the damage.
func corrupt(rng *conform.RNG, data []byte) ([]byte, string) {
	out := append([]byte(nil), data...)
	if rng.Intn(2) == 0 {
		at := rng.Intn(len(out) - 3)
		copy(out[at:at+4], []byte{0xff, 0xff, 0xff, 0xff})
		if bytes.Equal(out[at:at+4], data[at:at+4]) {
			out[at] ^= 1 // the run was 0xFF already: damage it anyway
		}
		return out, fmt.Sprintf("0xFF x4 at %d", at)
	}
	n := 1 + rng.Intn(4)
	desc := fmt.Sprintf("%d bit flip(s) at", n)
	for k := 0; k < n; k++ {
		at := rng.Intn(len(out) * 8)
		out[at/8] ^= 1 << (at % 8)
		desc += fmt.Sprintf(" %d.%d", at/8, at%8)
	}
	if bytes.Equal(out, data) {
		out[0] ^= 1 // two flips of one bit cancelled out
	}
	return out, desc
}

// TestCorruptCheckpointFilesAreRefused runs a seeded table of 400 damaged
// copies of one checkpoint file. RestoreFile must refuse every one of them,
// and Restore, handed the damaged stream without its trailer, must return
// (an error or a machine) without panicking: a stream read from anywhere
// else has no trailer to stop it, so the decoder itself must not fall over.
func TestCorruptCheckpointFilesAreRefused(t *testing.T) {
	t.Parallel()
	cfg := corruptionPoint()
	s := warmPoint(t)
	path := filepath.Join(t.TempDir(), "point.ckpt")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MustBuild(cfg).RestoreFile(path); err != nil {
		t.Fatalf("undamaged file refused: %v", err)
	}

	rng := conform.NewRNG(7)
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	for i := 0; i < 400; i++ {
		damaged, desc := corrupt(rng, file)
		if err := os.WriteFile(bad, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := MustBuild(cfg).RestoreFile(bad); err == nil {
			t.Errorf("corruption %d (%s): RestoreFile accepted the file", i, desc)
		}
		restoreWithoutPanic(t, cfg, damaged[:len(damaged)-12], i, desc)
	}
}

// restoreWithoutPanic restores stream into a fresh build and fails t if the
// restore panics.
func restoreWithoutPanic(t *testing.T, cfg Config, stream []byte, i int, desc string) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Errorf("corruption %d (%s): Restore panicked: %v", i, desc, p)
		}
	}()
	MustBuild(cfg).Restore(bytes.NewReader(stream))
}

// savedPoint returns the checkpoint stream of warmPoint.
func savedPoint(t *testing.T) []byte {
	t.Helper()
	s := warmPoint(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreFileRefusesFilesSaveFileDidNotWrite hands RestoreFile files
// that carry no trailer of SaveFile's: a bare Save stream, a whole stream
// followed by a zero CRC and the magic or by 12 bytes of something else
// (which Restore alone would decode), the stream with only the magic
// appended, bytes that are no checkpoint at all, an empty file and a missing
// one. It must refuse each of them.
func TestRestoreFileRefusesFilesSaveFileDidNotWrite(t *testing.T) {
	t.Parallel()
	stream := savedPoint(t)
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"bare stream", stream},
		{"zero CRC", append(append(append([]byte(nil), stream...), make([]byte, 8)...), fileMagic...)},
		{"foreign trailer", append(append([]byte(nil), stream...), bytes.Repeat([]byte{0xab}, 12)...)},
		{"magic only", append(append([]byte(nil), stream...), fileMagic...)},
		{"not a checkpoint", []byte("not a checkpoint")},
		{"empty", nil},
	} {
		path := filepath.Join(dir, "f.ckpt")
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := MustBuild(corruptionPoint()).RestoreFile(path); err == nil {
			t.Errorf("%s: RestoreFile accepted the file", c.name)
		}
	}
	if _, err := MustBuild(corruptionPoint()).RestoreFile(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Error("missing file: RestoreFile returned no error")
	}
}

// TestRestoreRefusesTruncatedStream cuts a checkpoint stream short at every
// 997th byte and at the last byte. Restore, which has no trailer to check,
// must return an error for each cut rather than restore a partial machine.
func TestRestoreRefusesTruncatedStream(t *testing.T) {
	t.Parallel()
	stream := savedPoint(t)
	if _, err := MustBuild(corruptionPoint()).Restore(bytes.NewReader(stream)); err != nil {
		t.Fatalf("whole stream refused: %v", err)
	}
	cuts := []int{len(stream) - 1}
	for n := 0; n < len(stream); n += 997 {
		cuts = append(cuts, n)
	}
	for _, n := range cuts {
		if _, err := MustBuild(corruptionPoint()).Restore(bytes.NewReader(stream[:n])); err == nil {
			t.Errorf("stream cut to %d of %d bytes: Restore returned no error", n, len(stream))
		}
	}
}
