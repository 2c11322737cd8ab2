// Package conform is the one driver of the repository's differential tests,
// which check a subject (the calendar queue, ReqQueue, a sleeping RTLObject)
// against an oracle it must be indistinguishable from (the reference heap,
// the offer-everything walk, the machine that ticks every cycle). Script
// compares the two after every action of one script; Splits compares one
// oracle run with one subject run per split tick.
//
// Only test files import it. It imports nothing of the repository but
// internal/ckpt, so the package-internal tests of any layer can.
package conform

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"testing"

	"gem5rtl/internal/ckpt"
)

// RNG is splitmix64: a seedable stream whose whole state is one word, so a
// component that draws from it checkpoints the stream with its own state.
type RNG struct{ s uint64 }

// NewRNG returns a stream seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{seed} }

// Uint64 returns the next value of the stream.
func (r *RNG) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Intn returns a value in [0, n).
func (r *RNG) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Checkpoint saves or restores the stream's position.
func (r *RNG) Checkpoint(s *ckpt.Stream) error {
	s.U64(&r.s)
	return s.Err()
}

// Straddle returns the first two names of the form prefix+"N" whose ranks,
// with suffix appended, fall below and above the rank of pivot: events that
// dispatch before and after pivot when all three share a tick and a
// priority. rank is the event kernel's same-tick arbitration key.
func Straddle(rank func(string) uint64, pivot, prefix, suffix string) (lo, hi string) {
	for i := 0; lo == "" || hi == ""; i++ {
		n := fmt.Sprintf("%s%d", prefix, i)
		switch {
		case lo == "" && rank(n+suffix) < rank(pivot):
			lo = n
		case hi == "" && rank(n+suffix) > rank(pivot):
			hi = n
		}
	}
	return lo, hi
}

// A Saver writes its whole state as one checkpoint stream, as
// soc.System.Save does.
type Saver interface{ Save(io.Writer) error }

// Digest is the FNV-64a of the checkpoint stream s saves: the one state
// digest the tests compare machines by and pin (kernel_golden.json), failing
// t on an error.
func Digest(t testing.TB, s Saver) uint64 {
	t.Helper()
	h := fnv.New64a()
	if err := s.Save(h); err != nil {
		t.Fatalf("digest: %v", err)
	}
	return h.Sum64()
}

// Save writes parts, in order, into one checkpoint, failing t on an error.
func Save(t testing.TB, parts ...ckpt.Checkpointable) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	s := ckpt.Saving(w)
	for _, p := range parts {
		if err := p.Checkpoint(s); err != nil {
			t.Fatalf("save: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

// Restore reads a checkpoint Save wrote back into the same parts, in order,
// failing t on an error.
func Restore(t testing.TB, data []byte, parts ...ckpt.Checkpointable) {
	t.Helper()
	if err := Load(data, parts...); err != nil {
		t.Fatalf("restore: %v", err)
	}
}

// Load reads a checkpoint back into parts, in order, as Restore does, and
// returns the first error: the form a test uses that requires a refusal.
func Load(data []byte, parts ...ckpt.Checkpointable) error {
	s := ckpt.Restoring(ckpt.NewReader(bytes.NewReader(data)))
	for _, p := range parts {
		if err := p.Checkpoint(s); err != nil {
			return err
		}
	}
	return s.Err()
}

// Words encodes vs as a checkpoint stream writes 64-bit fields:
// little-endian, eight bytes each.
func Words(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// Patch returns a copy of data with old replaced by new. old must occur in
// data exactly once, or t fails: a refusal test damages one field of a real
// checkpoint so, and an ambiguous match would damage the wrong one.
func Patch(t testing.TB, data, old, new []byte) []byte {
	t.Helper()
	at := bytes.Index(data, old)
	if at < 0 || bytes.Index(data[at+1:], old) >= 0 {
		t.Fatalf("patch: %x occurs %d times, want once", old, bytes.Count(data, old))
	}
	out := append([]byte(nil), data[:at]...)
	out = append(out, new...)
	return append(out, data[at+len(old):]...)
}

// A Machine is one side of a Script: a system that actions of type A drive
// and that is compared with the other side on a digest D.
type Machine[A any, D comparable] interface {
	Apply(A)
	// Digest is what the two sides must agree on after every action.
	Digest() D
	Save(t testing.TB) []byte
	// Restore builds a fresh machine that continues from data, which Save
	// wrote. It returns nil where the state cannot, or is not to, travel
	// through a checkpoint now: the script then stays in this machine.
	Restore(t testing.TB, data []byte) Machine[A, D]
}

// ScriptResult is what a finished script leaves: the machines it ended in
// and how many times it continued in restored ones.
type ScriptResult[A any, D comparable] struct {
	Subject, Oracle Machine[A, D]
	Restores        int
}

// Script drives subject and oracle through actions and fails t at the first
// action after which their digests differ. After an action isSave reports,
// both save, the checkpoints must be byte-identical, and the script continues
// in machines restored from them. After the last action both save once more.
func Script[A any, D comparable](t testing.TB, subject, oracle Machine[A, D], actions []A, isSave func(A) bool) ScriptResult[A, D] {
	t.Helper()
	res := ScriptResult[A, D]{Subject: subject, Oracle: oracle}
	for step, a := range actions {
		res.Subject.Apply(a)
		res.Oracle.Apply(a)
		if isSave(a) {
			res.save(t, step, true)
		}
		if s, o := res.Subject.Digest(), res.Oracle.Digest(); s != o {
			t.Fatalf("step %d %+v: digests differ\n subject %+v\n oracle  %+v", step, a, s, o)
		}
	}
	res.save(t, len(actions), false)
	return res
}

func (res *ScriptResult[A, D]) save(t testing.TB, step int, restore bool) {
	t.Helper()
	sb, ob := res.Subject.Save(t), res.Oracle.Save(t)
	if !bytes.Equal(sb, ob) {
		t.Fatalf("step %d: checkpoints differ\n subject %x\n oracle  %x", step, sb, ob)
	}
	if !restore {
		return
	}
	s, o := res.Subject.Restore(t, sb), res.Oracle.Restore(t, ob)
	if (s == nil) != (o == nil) {
		t.Fatalf("step %d: subject restored %v, oracle %v", step, s != nil, o != nil)
	}
	if s != nil {
		res.Subject, res.Oracle = s, o
		res.Restores++
	}
}

// A Run is one machine on its way through ascending split ticks.
type Run[T ~uint64, D comparable] struct {
	To     func(at T) D // advances the machine to at and digests it there
	Finish func() D     // runs the machine to its end and digests it
}

// Splits checks a subject split at each of ticks against one oracle run,
// both built by start. The oracle runs once, digested at every tick in
// ascending order and at its end. The subject runs once per tick, in a
// parallel subtest named after the tick: to the tick, where its digest must
// be the oracle's there, and on to its end, where it must be the oracle's.
func Splits[T ~uint64, D comparable](t *testing.T, ticks []T, start func(t *testing.T, oracle bool) Run[T, D]) {
	t.Helper()
	sorted := append([]T(nil), ticks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	oracle := start(t, true)
	want := make([]D, len(sorted))
	for i, at := range sorted {
		want[i] = oracle.To(at)
	}
	wantEnd := oracle.Finish()
	for i, at := range sorted {
		t.Run(fmt.Sprint(uint64(at)), func(t *testing.T) {
			t.Parallel()
			r := start(t, false)
			if got := r.To(at); got != want[i] {
				t.Errorf("split at %d:\n subject %+v\n oracle  %+v", at, got, want[i])
			}
			if got := r.Finish(); got != wantEnd {
				t.Errorf("split at %d, at the end:\n subject %+v\n oracle  %+v", at, got, wantEnd)
			}
		})
	}
}
