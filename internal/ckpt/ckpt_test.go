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
func TestVersion1StreamRefused(t *testing.T) { refuseVersion(t, 1) }

// TestVersion2StreamRefused: version 2 streams carried the payloads of
// in-flight memory-side packets and DMA writes that version 3 dropped, so
// their header must stop the restore before any section is read.
func TestVersion2StreamRefused(t *testing.T) { refuseVersion(t, 2) }

// refuseVersion writes a header of stream version v and requires the reader
// to refuse it with the version error.
func refuseVersion(t *testing.T, v uint32) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U32(Magic)
	w.U32(v)
	w.U64(0x1111)
	w.U64(12345)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	r.Header(0x1111)
	want := fmt.Sprintf("ckpt: unsupported checkpoint version %d (want %d)", v, Version)
	if err := r.Err(); err == nil || err.Error() != want {
		t.Fatalf("version %d header: error %v, want %q", v, err, want)
	}
}

type testState struct{ v uint64 }

func (s *testState) SenderStateKind() uint8 { return 200 }
func (s *testState) Checkpoint(cs *Stream)  { cs.U64(&s.v) }

func TestSenderStateRegistry(t *testing.T) {
	RegisterSenderState(200, func() SenderState { return &testState{} })
	var buf bytes.Buffer
	w := NewWriter(&buf)
	stack := []any{&testState{v: 77}, uint64(5)}
	Slice(Saving(w), &stack, (*Stream).SenderState)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []any
	s := Restoring(NewReader(&buf))
	Slice(s, &got, (*Stream).SenderState)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("restored %d entries, want 2", len(got))
	}
	if ts, ok := got[0].(*testState); !ok || ts.v != 77 {
		t.Errorf("restored entry 0 = %#v", got[0])
	}
	if id, ok := got[1].(uint64); !ok || id != 5 {
		t.Errorf("restored entry 1 = %#v, want the bare ID 5", got[1])
	}

	var v any
	s = Restoring(NewReader(bytes.NewReader([]byte{250, 0, 0, 0, 0, 0, 0, 0, 0})))
	s.SenderState(&v)
	if s.Err() == nil {
		t.Fatal("unknown kind should fail the stream")
	}
	v = struct{}{}
	s = Saving(NewWriter(&buf))
	s.SenderState(&v)
	if s.Err() == nil {
		t.Fatal("an unregistered type should fail the save")
	}
}

// pair is a component of the stream tests: every field kind, and a slice.
type pair struct {
	u   uint64
	w   uint32
	b   uint8
	i   int64
	n   int
	ok  bool
	raw []byte
	s   string
	xs  []uint64
}

func (p *pair) Checkpoint(s *Stream) error {
	s.Section("pair")
	s.U64(&p.u)
	s.U32(&p.w)
	s.U8(&p.b)
	s.I64(&p.i)
	s.Len(&p.n)
	s.Bool(&p.ok)
	s.Bytes(&p.raw)
	s.String(&p.s)
	Slice(s, &p.xs, (*Stream).U64)
	return s.Err()
}

// TestStreamRoundTrip: one Checkpoint method saves a value and restores it,
// and a saving pass writes the same bytes as the Writer calls it stands for.
func TestStreamRoundTrip(t *testing.T) {
	want := pair{u: 1 << 40, w: 7, b: 0xab, i: -42, n: 3, ok: true, raw: []byte{}, s: "hi", xs: []uint64{5, 6}}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := want.Checkpoint(Saving(w)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	d := NewWriter(&direct)
	d.Section("pair")
	d.U64(1 << 40)
	d.U32(7)
	d.U8(0xab)
	d.I64(-42)
	d.Int(3)
	d.Bool(true)
	d.Bytes([]byte{})
	d.String("hi")
	d.Int(2)
	d.U64(5)
	d.U64(6)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), direct.Bytes()) {
		t.Fatalf("saving stream wrote %x, want %x", buf.Bytes(), direct.Bytes())
	}
	var got pair
	if err := got.Checkpoint(Restoring(NewReader(bytes.NewReader(buf.Bytes())))); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || got.raw == nil {
		t.Fatalf("restored %+v, want %+v", got, want)
	}
}

// TestSliceClaimDoesNotSizeAllocation: a restored slice whose length word
// claims far more elements than the stream holds fails at the stream's end
// with only the elements it read.
func TestSliceClaimDoesNotSizeAllocation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Int(1 << 29)
	w.U64(1)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var xs []uint64
	s := Restoring(NewReader(&buf))
	Slice(s, &xs, (*Stream).U64)
	if s.Err() == nil {
		t.Fatal("a short stream restored without an error")
	}
	if cap(xs) > 16 {
		t.Fatalf("restore grew the slice to capacity %d", cap(xs))
	}
}
