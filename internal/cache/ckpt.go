package cache

import (
	"fmt"
	"sort"

	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/port"
)

// Checkpoint saves or restores the full cache state: every line (tag, flags,
// LRU stamp), the MSHR file with coalesced target packets, the stride
// prefetcher, statistics, the CPU-side retry flags and both port queues.
// MSHRs live in a map that is only ever key-addressed during simulation, so
// a save writes them sorted by block address, which keeps the stream
// deterministic without constraining the hot path. A restore targets a
// freshly built cache of identical geometry. The OnMiss hook is host wiring
// and is re-registered by the builder, not the checkpoint.
func (c *Cache) Checkpoint(s *ckpt.Stream) error {
	s.Section("cache." + c.cfg.Name)
	n, a := c.nsets, c.cfg.Assoc
	s.Int(&n)
	s.Int(&a)
	if s.Err() == nil && (n != c.nsets || a != c.cfg.Assoc) {
		return fmt.Errorf("cache %s: checkpoint geometry %dx%d does not match %dx%d",
			c.cfg.Name, n, a, c.nsets, c.cfg.Assoc)
	}
	// Lines are stored sparsely: only valid ones, keyed by (set, way). An
	// invalid line's tag/lastUse are never read (victim selection takes
	// the first invalid way), and a restore targets a freshly built cache
	// whose lines are all invalid already — so skipping them keeps snapshots
	// proportional to the working set, not the cache geometry.
	type way struct{ set, i int }
	var valid []way
	if !s.Restoring() {
		for set := range c.sets {
			for i := range c.sets[set] {
				if c.sets[set][i].valid {
					valid = append(valid, way{set, i})
				}
			}
		}
	}
	ckpt.Slice(s, &valid, func(s *ckpt.Stream, w *way) {
		s.Int(&w.set)
		s.Int(&w.i)
		if w.set < 0 || w.set >= c.nsets || w.i < 0 || w.i >= c.cfg.Assoc {
			s.Fail(fmt.Errorf("cache %s: checkpoint line (%d,%d) outside %dx%d geometry",
				c.cfg.Name, w.set, w.i, c.nsets, c.cfg.Assoc))
			return
		}
		ln := &c.ways(w.set)[w.i]
		ln.valid = true
		s.U64(&ln.tag)
		s.Bool(&ln.dirty)
		s.Bool(&ln.prefetched)
		s.U64(&ln.lastUse)
	})
	if err := s.Err(); err != nil {
		return err
	}
	s.U64(&c.useCt)
	var mshrs []*mshr
	if !s.Restoring() {
		for _, m := range c.mshrs {
			mshrs = append(mshrs, m)
		}
		sort.Slice(mshrs, func(i, j int) bool { return mshrs[i].blockAddr < mshrs[j].blockAddr })
	}
	ckpt.Slice(s, &mshrs, func(s *ckpt.Stream, m **mshr) {
		if s.Restoring() {
			*m = &mshr{}
		}
		s.U64(&(*m).blockAddr)
		s.Bool(&(*m).isPref)
		ckpt.Slice(s, &(*m).targets, port.CheckpointPacket)
	})
	if s.Restoring() {
		c.mshrs = make(map[uint64]*mshr) // the stream's count: no size hint
		for _, m := range mshrs {
			c.mshrs[m.blockAddr] = m
		}
	}
	s.U64(&c.lastMiss)
	s.I64(&c.lastStride)
	st := &c.stats
	s.U64(&st.Hits)
	s.U64(&st.Misses)
	s.U64(&st.ReadMisses)
	s.U64(&st.WriteMisses)
	s.U64(&st.Evictions)
	s.U64(&st.Writebacks)
	s.U64(&st.Prefetches)
	s.U64(&st.PrefHits)
	s.U64(&st.MSHRStalls)
	if err := c.cpuPort.Checkpoint(s); err != nil {
		return err
	}
	if err := c.respQ.Checkpoint(s); err != nil {
		return err
	}
	return c.reqQ.Checkpoint(s)
}
