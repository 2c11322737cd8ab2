package rtl

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestAppendBinMatchesStrconv holds the VCD writer's binary formatter to
// strconv's base-2 output: zero, both sides of every power of two, the
// largest value and a seeded stream, each appended after existing bytes.
func TestAppendBinMatchesStrconv(t *testing.T) {
	vals := []uint64{0, math.MaxUint64}
	for k := 0; k < 64; k++ {
		p := uint64(1) << k
		vals = append(vals, p-1, p, p+1)
	}
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 10000; i++ {
		vals = append(vals, rng.Uint64()>>rng.Intn(64))
	}
	prefix := []byte("b")
	for _, x := range vals {
		want := strconv.AppendUint(append([]byte(nil), prefix...), x, 2)
		if got := appendBin(append([]byte(nil), prefix...), x); !bytes.Equal(got, want) {
			t.Fatalf("appendBin(%#x) = %q, want %q", x, got, want)
		}
	}
}
