package ckpt

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(0xdeadbeefcafef00d)
	w.U32(0x12345678)
	w.I64(-42)
	w.Int(7)
	w.Bool(true)
	w.Bool(false)
	w.U8(0xab)
	w.F64(3.25)
	w.Bytes([]byte{1, 2, 3})
	w.Bytes(nil)
	w.Bytes([]byte{})
	w.String("hello")
	w.String("")
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	r := NewReader(&buf)
	if got := r.U64(); got != 0xdeadbeefcafef00d {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.U32(); got != 0x12345678 {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != 7 {
		t.Errorf("Int = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.U8(); got != 0xab {
		t.Errorf("U8 = %#x", got)
	}
	if got := r.F64(); got != 3.25 {
		t.Errorf("F64 = %v", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.Bytes(); got != nil {
		t.Errorf("nil Bytes = %v, want nil", got)
	}
	if got := r.Bytes(); got == nil || len(got) != 0 {
		t.Errorf("empty Bytes = %v, want non-nil empty", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("reader error: %v", err)
	}
}

func TestSectionMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section("cache")
	w.U64(1)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	r.Section("cpu")
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "cpu") {
		t.Fatalf("wrong-section read error = %v", err)
	}

	// Misaligned stream (no marker at all).
	r = NewReader(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}))
	r.Section("cache")
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Fatalf("misaligned read error = %v", err)
	}
}

func TestStickyErrors(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{1}))
	_ = r.U64() // short read fails
	if r.Err() == nil {
		t.Fatal("expected error after short read")
	}
	// All later reads are zero-valued no-ops.
	if r.U64() != 0 || r.Int() != 0 || r.Bool() || r.String() != "" || r.Bytes() != nil {
		t.Error("post-error reads not zero-valued")
	}
}

func TestHeaderValidation(t *testing.T) {
	save := func(fp uint64) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Header(fp, 12345)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	r := NewReader(bytes.NewReader(save(0x1111)))
	if tick := r.Header(0x1111); tick != 12345 || r.Err() != nil {
		t.Fatalf("good header: tick=%d err=%v", tick, r.Err())
	}

	r = NewReader(bytes.NewReader(save(0x1111)))
	r.Header(0x2222)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("fingerprint mismatch error = %v", err)
	}

	r = NewReader(bytes.NewReader([]byte("not a checkpoint....")))
	r.Header(0x1111)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic error = %v", err)
	}
}

// TestVersion1StreamRefused: version 1 streams carried cache line bytes and
// CPU packet payloads that version 2 dropped, so their header must stop the
// restore before any section is read.
func TestVersion1StreamRefused(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U32(Magic)
	w.U32(1)
	w.U64(0x1111)
	w.U64(12345)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	r.Header(0x1111)
	want := fmt.Sprintf("ckpt: unsupported checkpoint version 1 (want %d)", Version)
	if err := r.Err(); err == nil || err.Error() != want {
		t.Fatalf("version 1 header: error %v, want %q", err, want)
	}
}

func TestRawWriteReadPassthrough(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(99)
	if _, err := w.Write([]byte("raw-model-blob")); err != nil {
		t.Fatal(err)
	}
	w.U64(100)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	if r.U64() != 99 {
		t.Error("prefix mismatch")
	}
	blob := make([]byte, len("raw-model-blob"))
	if _, err := r.Read(blob); err != nil || string(blob) != "raw-model-blob" {
		t.Errorf("raw read = %q, %v", blob, err)
	}
	if r.U64() != 100 {
		t.Error("suffix mismatch")
	}
}

type testState struct{ v uint64 }

func (s *testState) SenderStateKind() uint8      { return 200 }
func (s *testState) EncodeSenderState(w *Writer) { w.U64(s.v) }
func decodeTestState(r *Reader) any              { return &testState{v: r.U64()} }

func TestSenderStateRegistry(t *testing.T) {
	RegisterSenderState(200, decodeTestState)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	s := &testState{v: 77}
	w.U8(s.SenderStateKind())
	s.EncodeSenderState(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	kind := r.U8()
	got := DecodeSenderState(kind, r)
	if ts, ok := got.(*testState); !ok || ts.v != 77 {
		t.Fatalf("decoded = %#v", got)
	}

	r = NewReader(bytes.NewReader([]byte{0}))
	DecodeSenderState(250, r)
	if r.Err() == nil {
		t.Fatal("unknown kind should fail the reader")
	}
}
