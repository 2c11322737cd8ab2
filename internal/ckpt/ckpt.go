// Package ckpt is the full-system checkpoint/restore framework: a versioned,
// fingerprinted binary serialization layer plus the Checkpointable contract
// every simulated component implements. It generalises the single-model
// format proven in internal/rtl/checkpoint.go (magic + fingerprint header,
// little-endian fixed-width fields) to the whole SoC.
//
// Design rules, mirroring gem5's SERIALIZE macros in spirit:
//
//   - Streams are little-endian and fixed-layout; there is no in-band schema.
//     A Version bump invalidates old checkpoints.
//   - A fingerprint of the builder's configuration is embedded in the header;
//     restore refuses a checkpoint taken under a different configuration, so
//     state is only ever poured back into an identically shaped system.
//   - Events hold closures and cannot be serialised. Components instead save
//     the scheduling state (pending?, when, sequence number) of the events
//     they own and re-materialise them on restore (see sim.SaveEvent /
//     EventQueue.RestoreEvent). Preserving the original sequence numbers keeps
//     intra-tick event ordering bit-identical after a restore.
//   - Section markers delimit every component's state. They cost a few bytes
//     and turn a misaligned read — the classic serialization bug — into an
//     immediate, named error instead of silent corruption downstream.
//
// Writer and Reader use sticky errors: the first failure latches and every
// later call is a no-op returning zero values, so component Save/Restore code
// can be written as straight-line field lists and check Err() once.
package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Magic identifies a gem5rtl system checkpoint stream ("g5ck").
const Magic uint32 = 0x6735636b

// Version is the stream layout version; bumped on incompatible changes.
const Version uint32 = 2

// sectionMark precedes every section name, catching misaligned reads early.
const sectionMark uint32 = 0x5ec70000

// Checkpointable is implemented by every component whose simulation state can
// be captured and restored. SaveState and RestoreState must visit fields in
// the same order; RestoreState is only called on a freshly built component of
// the identical configuration (the SoC fingerprint enforces this).
type Checkpointable interface {
	SaveState(w *Writer) error
	RestoreState(r *Reader) error
}

// Writer serialises checkpoint state with sticky-error semantics.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter wraps w for checkpoint writing. Call Flush when done.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Err returns the first error encountered, if any.
func (w *Writer) Err() error { return w.err }

// Fail latches err (if the writer has not already failed).
func (w *Writer) Fail(err error) {
	if w.err == nil && err != nil {
		w.err = err
	}
}

// Flush drains buffered output and returns the writer's final status.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.Fail(w.w.Flush())
	return w.err
}

// Write passes raw bytes through, letting components with their own binary
// formats (e.g. rtl.Model.SaveCheckpoint) write into the same stream.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n, err := w.w.Write(p)
	w.Fail(err)
	return n, err
}

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) {
	if w.err != nil {
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.w.Write(b[:])
	w.Fail(err)
}

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) {
	if w.err != nil {
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.w.Write(b[:])
	w.Fail(err)
}

// I64 writes an int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as an int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool writes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	w.U8(b)
}

// U8 writes a single byte.
func (w *Writer) U8(v byte) {
	if w.err != nil {
		return
	}
	w.Fail(w.w.WriteByte(v))
}

// F64 writes a float64 by bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes writes a length-prefixed byte slice, distinguishing nil from empty
// (components rely on lazily allocated buffers staying nil across restore).
func (w *Writer) Bytes(b []byte) {
	if b == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	w.Int(len(b))
	if w.err != nil || len(b) == 0 {
		return
	}
	_, err := w.w.Write(b)
	w.Fail(err)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Int(len(s))
	if w.err != nil {
		return
	}
	_, err := w.w.WriteString(s)
	w.Fail(err)
}

// Section writes a named marker delimiting one component's state.
func (w *Writer) Section(name string) {
	w.U32(sectionMark)
	w.String(name)
}

// Header writes the stream header: magic, version, configuration fingerprint
// and the checkpoint's simulated time.
func (w *Writer) Header(fingerprint uint64, tick uint64) {
	w.U32(Magic)
	w.U32(Version)
	w.U64(fingerprint)
	w.U64(tick)
}

// Reader deserialises checkpoint state with sticky-error semantics.
type Reader struct {
	r   *bufio.Reader
	err error
}

// NewReader wraps r for checkpoint reading.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Fail latches err (if the reader has not already failed).
func (r *Reader) Fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// Read passes raw bytes through for components with their own binary formats.
func (r *Reader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	n, err := io.ReadFull(r.r, p)
	r.Fail(err)
	return n, err
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	var b [8]byte
	if _, err := io.ReadFull(r.r, b[:]); err != nil {
		r.Fail(err)
		return 0
	}
	return binary.LittleEndian.Uint64(b[:])
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if r.err != nil {
		return 0
	}
	var b [4]byte
	if _, err := io.ReadFull(r.r, b[:]); err != nil {
		r.Fail(err)
		return 0
	}
	return binary.LittleEndian.Uint32(b[:])
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int written with Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// MaxLen caps any length-prefixed field a Reader accepts. Real sections are
// far smaller; a length beyond this is a corrupted or hostile stream and is
// rejected before any allocation.
const MaxLen = 1 << 30

// Len reads a non-negative length; negative or implausibly large values
// latch an error.
func (r *Reader) Len() int {
	n := r.Int()
	if n < 0 {
		r.Fail(fmt.Errorf("ckpt: negative length %d in stream", n))
		return 0
	}
	if n > MaxLen {
		r.Fail(fmt.Errorf("ckpt: implausible length %d in stream (max %d)", n, MaxLen))
		return 0
	}
	return n
}

// readN reads exactly n bytes, growing the buffer in bounded chunks so a
// corrupted length prefix fails at the stream's true end instead of
// allocating the full claimed size up front.
func (r *Reader) readN(n int) []byte {
	const chunk = 64 << 10
	c := n
	if c > chunk {
		c = chunk
	}
	buf := make([]byte, 0, c)
	for len(buf) < n {
		c = n - len(buf)
		if c > chunk {
			c = chunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, c)...)
		if _, err := io.ReadFull(r.r, buf[start:]); err != nil {
			r.Fail(err)
			return nil
		}
	}
	return buf
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U8 reads a single byte.
func (r *Reader) U8() byte {
	if r.err != nil {
		return 0
	}
	b, err := r.r.ReadByte()
	if err != nil {
		r.Fail(err)
		return 0
	}
	return b
}

// F64 reads a float64 by bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes reads a slice written with Writer.Bytes (nil stays nil).
func (r *Reader) Bytes() []byte {
	if !r.Bool() {
		return nil
	}
	n := r.Len()
	if r.err != nil {
		return nil
	}
	b := r.readN(n)
	if r.err != nil {
		return nil
	}
	return b
}

// String reads a string written with Writer.String.
func (r *Reader) String() string {
	n := r.Len()
	if r.err != nil {
		return ""
	}
	b := r.readN(n)
	if r.err != nil {
		return ""
	}
	return string(b)
}

// Section consumes a marker written by Writer.Section and verifies the name,
// turning any save/restore field mismatch into an immediate, located error.
func (r *Reader) Section(name string) {
	if m := r.U32(); r.err == nil && m != sectionMark {
		r.Fail(fmt.Errorf("ckpt: expected section %q, stream is misaligned (marker %#x)", name, m))
		return
	}
	if got := r.String(); r.err == nil && got != name {
		r.Fail(fmt.Errorf("ckpt: expected section %q, found %q", name, got))
	}
}

// Header reads and validates the stream header against the restorer's own
// fingerprint, returning the checkpoint's simulated time. A fingerprint
// mismatch means the checkpoint was taken under a different system
// configuration and must not be loaded.
func (r *Reader) Header(fingerprint uint64) (tick uint64) {
	if m := r.U32(); r.err == nil && m != Magic {
		r.Fail(fmt.Errorf("ckpt: bad magic %#x (not a gem5rtl checkpoint)", m))
		return 0
	}
	if v := r.U32(); r.err == nil && v != Version {
		r.Fail(fmt.Errorf("ckpt: unsupported checkpoint version %d (want %d)", v, Version))
		return 0
	}
	if fp := r.U64(); r.err == nil && fp != fingerprint {
		r.Fail(fmt.Errorf("ckpt: configuration fingerprint mismatch: checkpoint %#x, system %#x", fp, fingerprint))
		return 0
	}
	return r.U64()
}
