// Package cache implements the non-blocking, write-back, set-associative
// caches of the simulated SoC (Table 1): private L1I/L1D and L2 per core and
// a shared last-level cache. Caches model timing only: they keep tags, LRU
// state and dirty bits but no bytes, which live in mem.Storage alone (the
// cores read and write it directly, so no copy can go stale). They limit
// outstanding misses with MSHRs (propagating back-pressure through the port
// retry protocol), emit payload-free writebacks for dirty victims, and
// optionally run a stride prefetcher (the L2 configuration in the paper).
package cache

import (
	"fmt"

	"gem5rtl/internal/obs"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

// Config parameterises a cache.
type Config struct {
	Name      string
	SizeBytes int
	Assoc     int
	BlockSize int
	// Latency is the hit/lookup latency in ticks.
	Latency sim.Tick
	// MSHRs bounds outstanding misses (Table 1: 8-32 depending on level).
	MSHRs int
	// WriteBuffers bounds outstanding writebacks (0 = same as MSHRs).
	WriteBuffers int
	// StridePrefetch enables the degree-1 stride prefetcher (L2 in Table 1).
	StridePrefetch bool
}

// Stats aggregates cache activity.
type Stats struct {
	Hits        uint64
	Misses      uint64
	ReadMisses  uint64
	WriteMisses uint64
	Evictions   uint64
	Writebacks  uint64
	Prefetches  uint64
	PrefHits    uint64 // demand hits on prefetched lines
	MSHRStalls  uint64
}

type line struct {
	tag        uint64
	valid      bool
	dirty      bool
	prefetched bool
	lastUse    uint64
}

type mshr struct {
	blockAddr uint64
	targets   []*port.Packet
	isPref    bool
}

// Cache is one cache level with a CPU-side response port and a memory-side
// request port.
type Cache struct {
	cfg Config
	q   *sim.EventQueue
	// sets holds one way-array per set. The table and each set are made on
	// first use (ways); a nil table or set reads as all-invalid, so large
	// mostly-idle caches (the 16 MiB LLC in short DSE points, which no NVDLA
	// request reaches) cost memory proportional to their touched footprint,
	// not their geometry.
	sets  [][]line
	nsets int
	useCt uint64

	cpuPort *port.ResponsePort
	memPort *port.RequestPort
	respQ   *port.RespQueue
	reqQ    *port.ReqQueue

	mshrs map[uint64]*mshr
	// mshrPool recycles retired MSHRs (and their target slices); pool
	// recycles the block fetches and writebacks this cache originates.
	mshrPool sim.Freelist[mshr]
	pool     port.PacketPool

	// Stride prefetcher state.
	lastMiss   uint64
	lastStride int64

	// OnMiss fires on every demand miss (the PMU's L1D-miss event tap).
	OnMiss func()

	// trace is the Cache debug-flag logger (nil = off; see AttachTracer).
	trace *obs.Logger

	stats Stats
}

// New builds a cache on the given event queue.
func New(cfg Config, q *sim.EventQueue) *Cache {
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 64
	}
	if cfg.WriteBuffers == 0 {
		cfg.WriteBuffers = cfg.MSHRs
	}
	nsets := cfg.SizeBytes / cfg.BlockSize / cfg.Assoc
	if nsets < 1 {
		panic(fmt.Sprintf("cache %s: bad geometry", cfg.Name))
	}
	c := &Cache{cfg: cfg, q: q, nsets: nsets, mshrs: map[uint64]*mshr{}}
	c.pool.ShareIDs(q)
	c.cpuPort = port.NewResponsePort(cfg.Name+".cpu_side", (*cacheCPUSide)(c))
	c.memPort = port.NewRequestPort(cfg.Name+".mem_side", (*cacheMemSide)(c))
	c.respQ = port.NewRespQueue(cfg.Name+".resp", q, c.cpuPort)
	c.respQ.SetOwner(q.Owner(cfg.Name, "resp-drain"))
	c.reqQ = port.NewReqQueue(cfg.Name+".req", q, c.memPort)
	c.reqQ.SetOwner(q.Owner(cfg.Name, "req-drain"))
	return c
}

// CPUPort returns the upstream-facing response port.
func (c *Cache) CPUPort() *port.ResponsePort { return c.cpuPort }

// MemPort returns the downstream-facing request port.
func (c *Cache) MemPort() *port.RequestPort { return c.memPort }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	block := addr / uint64(c.cfg.BlockSize)
	return int(block % uint64(c.nsets)), block / uint64(c.nsets)
}

func (c *Cache) lookup(addr uint64) *line {
	if c.sets == nil {
		return nil
	}
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			return ln
		}
	}
	return nil
}

// cacheCPUSide implements port.Responder on the cache's CPU side.
type cacheCPUSide Cache

func (cs *cacheCPUSide) RecvTimingReq(pkt *port.Packet) bool {
	return (*Cache)(cs).handleRequest(pkt)
}

func (cs *cacheCPUSide) RecvRespRetry() { (*Cache)(cs).respQ.RecvRespRetry() }

// cacheMemSide implements port.Requestor on the cache's memory side.
type cacheMemSide Cache

func (ms *cacheMemSide) RecvTimingResp(pkt *port.Packet) bool {
	return (*Cache)(ms).handleFill(pkt)
}

func (ms *cacheMemSide) RecvReqRetry() { (*Cache)(ms).reqQ.RecvReqRetry() }

// handleRequest processes an upstream access.
func (c *Cache) handleRequest(pkt *port.Packet) bool {
	blockAddr := port.BlockAddr(pkt.Addr, c.cfg.BlockSize)
	// Coalesce with an outstanding miss to the same block.
	if m, ok := c.mshrs[blockAddr]; ok {
		if c.trace.On() {
			c.trace.Logf("%s addr=%#x coalesced into MSHR %#x (%d targets)",
				pkt.Cmd, pkt.Addr, blockAddr, len(m.targets)+1)
		}
		m.targets = append(m.targets, pkt)
		m.isPref = false
		return true
	}
	if ln := c.lookup(pkt.Addr); ln != nil {
		if c.trace.On() {
			c.trace.Logf("%s addr=%#x hit", pkt.Cmd, pkt.Addr)
		}
		c.stats.Hits++
		if ln.prefetched {
			c.stats.PrefHits++
			ln.prefetched = false
		}
		c.useCt++
		ln.lastUse = c.useCt
		c.serve(pkt, ln, c.q.Now()+c.cfg.Latency)
		return true
	}
	// Miss: need an MSHR.
	if len(c.mshrs) >= c.cfg.MSHRs {
		if c.trace.On() {
			c.trace.Logf("%s addr=%#x stalled: all %d MSHRs busy", pkt.Cmd, pkt.Addr, c.cfg.MSHRs)
		}
		c.stats.MSHRStalls++
		return false
	}
	if c.trace.On() {
		c.trace.Logf("%s addr=%#x miss, MSHR %#x allocated", pkt.Cmd, pkt.Addr, blockAddr)
	}
	c.stats.Misses++
	if pkt.Cmd.IsWrite() {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}
	if c.OnMiss != nil {
		c.OnMiss()
	}
	c.allocateMiss(blockAddr, pkt, false)
	c.maybePrefetch(blockAddr)
	return true
}

// allocateMiss registers an MSHR and issues the block fetch downstream.
func (c *Cache) allocateMiss(blockAddr uint64, pkt *port.Packet, isPref bool) {
	m := c.mshrPool.Get()
	m.blockAddr = blockAddr
	m.isPref = isPref
	if pkt != nil {
		m.targets = append(m.targets, pkt)
	}
	c.mshrs[blockAddr] = m
	cmd := port.ReadReq
	if isPref {
		cmd = port.PrefetchReq
	}
	fetch := c.pool.Get(cmd, blockAddr, c.cfg.BlockSize)
	fetch.ReqTick = c.q.Now()
	c.reqQ.Schedule(fetch, c.q.Now()+c.cfg.Latency)
}

// maybePrefetch runs the stride detector on the demand-miss stream.
func (c *Cache) maybePrefetch(blockAddr uint64) {
	if !c.cfg.StridePrefetch {
		return
	}
	stride := int64(blockAddr) - int64(c.lastMiss)
	if stride != 0 && stride == c.lastStride {
		next := uint64(int64(blockAddr) + stride)
		if _, pending := c.mshrs[next]; !pending && c.lookup(next) == nil &&
			len(c.mshrs) < c.cfg.MSHRs {
			c.stats.Prefetches++
			c.allocateMiss(port.BlockAddr(next, c.cfg.BlockSize), nil, true)
		}
	}
	c.lastStride = stride
	c.lastMiss = blockAddr
}

// serve completes an access against a resident line. The response carries
// no payload: the requestor reads the store.
func (c *Cache) serve(pkt *port.Packet, ln *line, readyAt sim.Tick) {
	if pkt.Cmd.IsWrite() {
		ln.dirty = true
		if !pkt.NeedsResponse() {
			// Terminus of a writeback: this cache is the packet's final owner.
			pkt.Release()
			return
		}
	}
	pkt.MakeResponse()
	c.respQ.Schedule(pkt, readyAt)
}

// handleFill processes a block arriving from downstream.
func (c *Cache) handleFill(pkt *port.Packet) bool {
	if pkt.Cmd == port.WriteResp {
		// Ack for a writeback-as-write; nothing to do.
		return true
	}
	blockAddr := pkt.Addr
	m, ok := c.mshrs[blockAddr]
	if !ok {
		panic(fmt.Sprintf("cache %s: fill for unknown block %#x", c.cfg.Name, blockAddr))
	}
	delete(c.mshrs, blockAddr)
	if c.trace.On() {
		c.trace.Logf("fill addr=%#x, %d targets", blockAddr, len(m.targets))
	}
	ln := c.victim(blockAddr)
	_, ln.tag = c.index(blockAddr)
	ln.valid = true
	ln.dirty = false
	ln.prefetched = m.isPref && len(m.targets) == 0
	c.useCt++
	ln.lastUse = c.useCt
	readyAt := c.q.Now() + c.cfg.Latency
	for _, t := range m.targets {
		c.serve(t, ln, readyAt)
	}
	// The fill is this cache's own fetch packet coming back, so it can be
	// recycled.
	pkt.Release()
	for i := range m.targets {
		m.targets[i] = nil
	}
	m.targets = m.targets[:0]
	c.mshrPool.Put(m)
	// MSHR freed: admit a deferred request and wake refused senders.
	c.cpuPort.SendRetryReq()
	return true
}

// victim selects (and if necessary evicts) a line for blockAddr's set.
func (c *Cache) victim(blockAddr uint64) *line {
	set, _ := c.index(blockAddr)
	ways := c.ways(set)
	vi := -1
	for i := range ways {
		ln := &ways[i]
		if !ln.valid {
			vi = i
			break
		}
		if vi < 0 || ln.lastUse < ways[vi].lastUse {
			vi = i
		}
	}
	v := &ways[vi]
	if v.valid {
		c.stats.Evictions++
		if v.dirty {
			c.stats.Writebacks++
			victimAddr := c.addrOf(set, v.tag)
			if c.trace.On() {
				c.trace.Logf("writeback victim addr=%#x for fill %#x", victimAddr, blockAddr)
			}
			c.reqQ.Schedule(c.pool.Get(port.WritebackDirty, victimAddr, c.cfg.BlockSize), c.q.Now())
		}
	}
	return v
}

// ways returns set s's way array, making the set table and the set on their
// first use.
func (c *Cache) ways(s int) []line {
	if c.sets == nil {
		c.sets = make([][]line, c.nsets)
	}
	if c.sets[s] == nil {
		c.sets[s] = make([]line, c.cfg.Assoc)
	}
	return c.sets[s]
}

// addrOf reconstructs a block's base address from set and tag.
func (c *Cache) addrOf(set int, tag uint64) uint64 {
	return (tag*uint64(c.nsets) + uint64(set)) * uint64(c.cfg.BlockSize)
}
