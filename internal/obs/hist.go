package obs

import (
	"math/bits"

	"gem5rtl/internal/ckpt"
)

// histBuckets is the number of log-2 buckets: bucket i counts values v with
// bits.Len64(v) == i, i.e. bucket 0 holds v == 0 and bucket i (i >= 1) holds
// the range [2^(i-1), 2^i).
const histBuckets = 65

// Histogram is a log-2 bucketed latency histogram. Buckets are mergeable
// across systems (parallel sweep points) and the whole struct round-trips
// bit-identically through a checkpoint.
type Histogram struct {
	buckets [histBuckets]uint64
	n       uint64
	sum     uint64
	min     uint64
	max     uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// Merge folds other into h (for cross-system aggregation).
func (h *Histogram) Merge(other *Histogram) {
	if other.n == 0 {
		return
	}
	for i := range h.buckets {
		h.buckets[i] += other.buckets[i]
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	h.sum += other.sum
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Min returns the smallest sample (0 when empty).
func (h *Histogram) Min() uint64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Bucket returns the count in log-2 bucket i.
func (h *Histogram) Bucket(i int) uint64 { return h.buckets[i] }

// Percentile returns an upper bound for the p-th percentile (p in [0,100]):
// the top of the bucket containing that rank. Log-2 bucketing bounds the
// answer within 2x, which is enough for latency distribution shape.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(p / 100 * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen > rank {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1
		}
	}
	return h.max
}

// Quantile returns the q-th quantile (q in [0, 1]) estimated by linear
// interpolation inside the containing log-2 bucket: the target rank
// q*Count() is located by walking the cumulative bucket counts, and the
// result is lo + (rank-cumBefore)/bucketCount * (hi-lo) for the bucket's
// value range [lo, hi). The estimate is clamped to the observed [Min, Max],
// so a quantile landing in the min or max sample's bucket never extrapolates
// past a value that was actually seen. q <= 0 returns Min, q >= 1 returns
// Max, and an empty histogram returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return float64(h.min)
	}
	if q >= 1 {
		return float64(h.max)
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if cum+fc >= target {
			if i == 0 {
				return 0
			}
			lo := float64(uint64(1) << uint(i-1))
			v := lo + (target-cum)/fc*lo
			if v < float64(h.min) {
				v = float64(h.min)
			}
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return v
		}
		cum += fc
	}
	return float64(h.max)
}

// Checkpoint implements ckpt.Checkpointable.
func (h *Histogram) Checkpoint(s *ckpt.Stream) error {
	s.Section("obs.hist")
	s.U64(&h.n)
	s.U64(&h.sum)
	s.U64(&h.min)
	s.U64(&h.max)
	for i := range h.buckets {
		s.U64(&h.buckets[i])
	}
	return s.Err()
}
