package cache

import (
	"fmt"
	"sort"

	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/port"
)

// SaveState captures the full cache state: every line (tag, flags, LRU
// stamp, data), the MSHR file with coalesced target packets, the stride
// prefetcher, statistics, the CPU-side retry flags and both port queues.
// MSHRs live in a map that is only ever key-addressed during simulation, so
// serialising it sorted by block address keeps the stream deterministic
// without constraining the hot path.
func (c *Cache) SaveState(w *ckpt.Writer) error {
	w.Section("cache." + c.cfg.Name)
	w.Int(c.nsets)
	w.Int(c.cfg.Assoc)
	// Lines are stored sparsely: only valid ones, keyed by (set, way). An
	// invalid line's tag/lastUse/data are never read (victim selection takes
	// the first invalid way), and a restore targets a freshly built cache
	// whose lines are all invalid already — so skipping them keeps snapshots
	// proportional to the working set, not the cache geometry.
	valid := 0
	for s := range c.sets {
		for i := range c.sets[s] {
			if c.sets[s][i].valid {
				valid++
			}
		}
	}
	w.Int(valid)
	for s := range c.sets {
		for i := range c.sets[s] {
			ln := &c.sets[s][i]
			if !ln.valid {
				continue
			}
			w.Int(s)
			w.Int(i)
			w.U64(ln.tag)
			w.Bool(ln.dirty)
			w.Bool(ln.prefetched)
			w.U64(ln.lastUse)
			w.Bytes(ln.data)
		}
	}
	w.U64(c.useCt)
	addrs := make([]uint64, 0, len(c.mshrs))
	for a := range c.mshrs {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w.Int(len(addrs))
	for _, a := range addrs {
		m := c.mshrs[a]
		w.U64(m.blockAddr)
		w.Bool(m.isPref)
		w.Int(len(m.targets))
		for _, t := range m.targets {
			port.SavePacket(w, t)
		}
	}
	w.U64(c.lastMiss)
	w.I64(c.lastStride)
	saveCacheStats(w, &c.stats)
	if err := c.cpuPort.SaveState(w); err != nil {
		return err
	}
	if err := c.respQ.SaveState(w); err != nil {
		return err
	}
	return c.reqQ.SaveState(w)
}

// RestoreState reinstates the state captured by SaveState into a freshly
// built cache of identical geometry. The OnMiss hook is host wiring and is
// re-registered by the builder, not the checkpoint.
func (c *Cache) RestoreState(r *ckpt.Reader) error {
	r.Section("cache." + c.cfg.Name)
	if n, a := r.Int(), r.Int(); r.Err() == nil && (n != c.nsets || a != c.cfg.Assoc) {
		return fmt.Errorf("cache %s: checkpoint geometry %dx%d does not match %dx%d",
			c.cfg.Name, n, a, c.nsets, c.cfg.Assoc)
	}
	nv := r.Len()
	for k := 0; k < nv && r.Err() == nil; k++ {
		s, i := r.Int(), r.Int()
		if s < 0 || s >= c.nsets || i < 0 || i >= c.cfg.Assoc {
			return fmt.Errorf("cache %s: checkpoint line (%d,%d) outside %dx%d geometry",
				c.cfg.Name, s, i, c.nsets, c.cfg.Assoc)
		}
		if c.sets[s] == nil {
			c.sets[s] = make([]line, c.cfg.Assoc)
		}
		ln := &c.sets[s][i]
		ln.valid = true
		ln.tag = r.U64()
		ln.dirty = r.Bool()
		ln.prefetched = r.Bool()
		ln.lastUse = r.U64()
		ln.data = r.Bytes()
	}
	c.useCt = r.U64()
	n := r.Len()
	c.mshrs = make(map[uint64]*mshr) // n is the stream's word: no size hint
	for i := 0; i < n && r.Err() == nil; i++ {
		m := &mshr{blockAddr: r.U64(), isPref: r.Bool()}
		nt := r.Len()
		for j := 0; j < nt && r.Err() == nil; j++ {
			m.targets = append(m.targets, port.LoadPacket(r))
		}
		c.mshrs[m.blockAddr] = m
	}
	c.lastMiss = r.U64()
	c.lastStride = r.I64()
	restoreCacheStats(r, &c.stats)
	if err := c.cpuPort.RestoreState(r); err != nil {
		return err
	}
	if err := c.respQ.RestoreState(r); err != nil {
		return err
	}
	return c.reqQ.RestoreState(r)
}

func saveCacheStats(w *ckpt.Writer, s *Stats) {
	w.U64(s.Hits)
	w.U64(s.Misses)
	w.U64(s.ReadMisses)
	w.U64(s.WriteMisses)
	w.U64(s.Evictions)
	w.U64(s.Writebacks)
	w.U64(s.Prefetches)
	w.U64(s.PrefHits)
	w.U64(s.MSHRStalls)
}

func restoreCacheStats(r *ckpt.Reader, s *Stats) {
	s.Hits = r.U64()
	s.Misses = r.U64()
	s.ReadMisses = r.U64()
	s.WriteMisses = r.U64()
	s.Evictions = r.U64()
	s.Writebacks = r.U64()
	s.Prefetches = r.U64()
	s.PrefHits = r.U64()
	s.MSHRStalls = r.U64()
}
