package ckpt

import (
	"bytes"
	"strings"
	"testing"
)

// buildSeedStream writes one of every field type, exactly mirroring the read
// sequence in readSeedShape.
func buildSeedStream() []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Header(0x1234, 42)
	w.Section("core0")
	w.U64(7)
	w.U32(3)
	w.Int(-5)
	w.Bool(true)
	w.U8(0xAB)
	w.Bytes([]byte{1, 2, 3})
	w.Bytes(nil)
	w.String("hello")
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// readSeedShape drives a Reader through the full field vocabulary against
// arbitrary bytes. It must never panic, whatever the stream contains.
func readSeedShape(data []byte) error {
	r := NewReader(bytes.NewReader(data))
	r.Header(0x1234)
	r.Section("core0")
	_ = r.U64()
	_ = r.U32()
	_ = r.Int()
	_ = r.Bool()
	_ = r.U8()
	_ = r.Bytes()
	_ = r.Bytes()
	_ = r.String()
	_ = r.U64() // past the end of an exact stream
	_ = r.U64()
	return r.Err()
}

// FuzzReader asserts the Reader survives arbitrary streams: truncated,
// bit-flipped and oversized-length inputs must latch an error, never panic
// and never allocate the claimed length up front.
func FuzzReader(f *testing.F) {
	seed := buildSeedStream()
	f.Add(seed)
	f.Add([]byte{})
	f.Add(seed[:len(seed)/2])
	flipped := append([]byte(nil), seed...)
	flipped[9] ^= 0x80
	f.Add(flipped)
	// A stream claiming a huge (but sub-cap) Bytes length it cannot back.
	var over bytes.Buffer
	ow := NewWriter(&over)
	ow.Header(0x1234, 42)
	ow.Section("core0")
	ow.U64(7)
	ow.U32(3)
	ow.Int(-5)
	ow.Bool(true)
	ow.U8(0xAB)
	ow.Bool(true)
	ow.Int(1 << 28)
	_ = ow.Flush()
	f.Add(over.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = readSeedShape(data)
	})
}

func TestReaderRoundTrip(t *testing.T) {
	if err := readSeedShape(buildSeedStream()); err == nil {
		t.Fatal("expected an error reading past the end on exact stream, got nil")
	}
	// Everything before the deliberate reads past the end must succeed.
	r := NewReader(bytes.NewReader(buildSeedStream()))
	if tick := r.Header(0x1234); tick != 42 {
		t.Fatalf("tick = %d, want 42", tick)
	}
	r.Section("core0")
	if got := r.U64(); got != 7 {
		t.Fatalf("U64 = %d", got)
	}
	r.U32()
	if got := r.Int(); got != -5 {
		t.Fatalf("Int = %d", got)
	}
	r.Bool()
	r.U8()
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v", got)
	}
	if got := r.Bytes(); got != nil {
		t.Fatalf("nil Bytes = %v", got)
	}
	if got := r.String(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("clean stream errored: %v", err)
	}
}

// TestReaderTruncation cuts the seed stream at every byte offset: each prefix
// must produce a latched error (the stream is exactly consumed when whole)
// and must never panic.
func TestReaderTruncation(t *testing.T) {
	seed := buildSeedStream()
	for i := 0; i < len(seed); i++ {
		if err := readSeedShape(seed[:i]); err == nil {
			t.Fatalf("truncation at byte %d: expected error, got nil", i)
		}
	}
}

func TestReaderOversizedLength(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Bool(true)
	w.Int(1 << 40) // far beyond MaxLen
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if b := r.Bytes(); b != nil {
		t.Fatalf("oversized Bytes returned %d bytes", len(b))
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "implausible length") {
		t.Fatalf("err = %v, want implausible-length error", err)
	}
}

// TestReaderHugeClaimTruncated claims a large (sub-cap) payload backed by a
// few bytes: the chunked read must fail at the real end of the stream rather
// than allocate the claimed size.
func TestReaderHugeClaimTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Bool(true)
	w.Int(1 << 28)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("short")
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if b := r.Bytes(); b != nil {
		t.Fatalf("truncated Bytes returned %d bytes", len(b))
	}
	if r.Err() == nil {
		t.Fatal("expected error for truncated huge claim")
	}
}

func TestReaderNegativeLength(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Int(-1)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if s := r.String(); s != "" {
		t.Fatalf("negative-length String = %q", s)
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "negative length") {
		t.Fatalf("err = %v, want negative-length error", err)
	}
}
