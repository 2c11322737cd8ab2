package sim

// A Freelist that runs dry allocates a slab as large as all it has made so
// far, between these bounds: a list that never holds more than a handful of
// values costs one small slab, and a busy one a slab per 32 values.
const (
	minSlab = 4
	maxSlab = 32
)

// Freelist recycles values of one type for one simulation: the packets,
// request records and trackers a component hands out per access and takes
// back when the access retires. Unlike sync.Pool it is deterministic (no
// GC-driven eviction) and single-threaded like the event queue that drives
// it. It grows by a slab of values at a time, so a pool that peaks at n live
// values costs about n/32 + 4 allocations over a run, all of them before it
// first reaches that peak.
//
// A value comes back from Get as Put left it: a caller that needs a clean
// value resets the fields it uses, and may keep resources (an event, a
// buffer) in it across uses. The zero Freelist is ready to use.
type Freelist[T any] struct {
	free []*T
	made int
}

// Get returns a recycled value, or a zero value from a fresh slab.
func (f *Freelist[T]) Get() *T {
	n := len(f.free)
	if n == 0 {
		slab := make([]T, min(max(f.made, minSlab), maxSlab))
		f.made += len(slab)
		for i := len(slab) - 1; i > 0; i-- {
			f.free = append(f.free, &slab[i])
		}
		return &slab[0]
	}
	v := f.free[n-1]
	f.free = f.free[:n-1]
	return v
}

// Put returns v to the list. v must not be used afterwards: a later Get
// hands it out again.
func (f *Freelist[T]) Put(v *T) { f.free = append(f.free, v) }

// Len reports how many values wait in the list.
func (f *Freelist[T]) Len() int { return len(f.free) }
