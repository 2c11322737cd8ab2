package conform

import "testing"

// TestRNGIsSplitmix64 pins the stream to splitmix64's published outputs for
// seed 0, and its checkpoint to the position it was saved at.
func TestRNGIsSplitmix64(t *testing.T) {
	r := NewRNG(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := r.Uint64(); got != want {
			t.Fatalf("output %d: %#x, want %#x", i, got, want)
		}
	}
	data := Save(t, r)
	want := r.Uint64()
	var back RNG
	Restore(t, data, &back)
	if got := back.Uint64(); got != want {
		t.Fatalf("restored stream continues with %#x, want %#x", got, want)
	}
}
