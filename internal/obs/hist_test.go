package obs

import (
	"bytes"
	"testing"

	"gem5rtl/internal/conform"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 1106 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	if h.Min() != 0 || h.Max() != 1000 {
		t.Fatalf("min=%d max=%d", h.Min(), h.Max())
	}
	if got := h.Mean(); got < 184 || got > 185 {
		t.Fatalf("mean = %v", got)
	}
	// Bucket i holds [2^(i-1), 2^i): 0 -> bucket 0, 1 -> 1, 2,3 -> 2,
	// 100 -> 7, 1000 -> 10.
	for i, want := range map[int]uint64{0: 1, 1: 1, 2: 2, 7: 1, 10: 1} {
		if h.Bucket(i) != want {
			t.Fatalf("bucket[%d] = %d, want %d", i, h.Bucket(i), want)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Percentile(99) != 0 {
		t.Fatal("empty histogram not all-zero")
	}
}

func TestHistogramPercentileBounds(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(10) // bucket 4, upper bound 15
	}
	h.Observe(1 << 20) // one outlier
	if p50 := h.Percentile(50); p50 != 15 {
		t.Fatalf("p50 = %d, want 15", p50)
	}
	p999 := h.Percentile(99.9)
	if p999 < 1<<20 {
		t.Fatalf("p99.9 = %d, want >= outlier", p999)
	}
}

// TestHistogramQuantileInterpolation pins the interpolated quantile against
// hand-computed exact values. Samples {4, 8, 12, 16}: bucket 3 holds {4}
// (range [4,8)), bucket 4 holds {8, 12} (range [8,16)), bucket 5 holds {16}
// (range [16,32)).
func TestHistogramQuantileInterpolation(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{4, 8, 12, 16} {
		h.Observe(v)
	}
	// q=0.5: rank 2 lands in bucket 4 with cumBefore=1, count=2:
	// 8 + (2-1)/2 * 8 = 12 exactly.
	if got := h.Quantile(0.5); got != 12 {
		t.Fatalf("Quantile(0.5) = %v, want 12", got)
	}
	// q=0.25: rank 1 lands in bucket 3 (cumBefore=0, count=1):
	// 4 + 1/1 * 4 = 8, clamped nowhere (8 <= max).
	if got := h.Quantile(0.25); got != 8 {
		t.Fatalf("Quantile(0.25) = %v, want 8", got)
	}
	// q=0.95: rank 3.8 lands in bucket 5: 16 + 0.8*16 = 28.8, clamped to
	// max=16 because nothing larger than 16 was ever observed.
	if got := h.Quantile(0.95); got != 16 {
		t.Fatalf("Quantile(0.95) = %v, want 16 (clamped to max)", got)
	}
	// Edge behaviour: q<=0 -> min, q>=1 -> max, empty -> 0.
	if got := h.Quantile(0); got != 4 {
		t.Fatalf("Quantile(0) = %v, want min 4", got)
	}
	if got := h.Quantile(1); got != 16 {
		t.Fatalf("Quantile(1) = %v, want max 16", got)
	}
	var empty Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile(0.5) = %v, want 0", got)
	}
	// Zero samples report quantile 0 (bucket 0 has no width to
	// interpolate over).
	var zeros Histogram
	zeros.Observe(0)
	zeros.Observe(0)
	if got := zeros.Quantile(0.5); got != 0 {
		t.Fatalf("all-zero Quantile(0.5) = %v, want 0", got)
	}
}

func TestHistogramMergeEqualsCombinedObservation(t *testing.T) {
	var a, b, all Histogram
	for i := uint64(0); i < 100; i++ {
		v := i * i % 977
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		all.Observe(v)
	}
	a.Merge(&b)
	if a != all {
		t.Fatalf("merged %+v != combined %+v", a, all)
	}
	var empty Histogram
	a.Merge(&empty) // merging an empty histogram must not disturb min
	if a != all {
		t.Fatal("merging empty changed the histogram")
	}
}

// TestHistogramCheckpointRoundTrip is satellite 3's first property: the
// histogram survives a save/restore bit-identically — restoring and saving
// again yields the exact same byte stream.
func TestHistogramCheckpointRoundTrip(t *testing.T) {
	var h Histogram
	for i := uint64(1); i < 1000; i += 7 {
		h.Observe(i * 13)
	}
	first := conform.Save(t, &h)
	var back Histogram
	conform.Restore(t, first, &back)
	if back != h {
		t.Fatalf("restored %+v != saved %+v", back, h)
	}
	if !bytes.Equal(first, conform.Save(t, &back)) {
		t.Fatal("checkpoint round-trip is not bit-identical")
	}
}
