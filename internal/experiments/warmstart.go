package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"gem5rtl/internal/obs"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/trace"
)

// specConfig maps a sweep point to its SoC configuration.
func specConfig(spec RunSpec) soc.Config {
	cfg := soc.DefaultConfig()
	cfg.Cores = 1 // host cores idle during accelerator runs; keep one for realism
	cfg.Memory = spec.Memory
	cfg.NVDLAs = spec.NVDLAs
	cfg.NVDLAMaxInflight = spec.Inflight
	return cfg
}

// buildPoint builds and fully sets up one simulation point: accelerators
// started and each playing its own copy of the workload trace. Only tests
// pass oracles other than the zero value.
func buildPoint(spec RunSpec, o soc.Oracles) (*soc.System, error) {
	s, err := soc.BuildWithOracles(specConfig(spec), o)
	if err != nil {
		return nil, err
	}
	for i := 0; i < spec.NVDLAs; i++ {
		s.NVDLAs[i].Start()
		tr, err := trace.Scaled(spec.Workload, uint64(i+1)<<32, spec.Scale)
		if err != nil {
			return nil, err
		}
		s.PlayTrace(i, tr)
	}
	return s, nil
}

// CheckpointCache holds post-warm-up system snapshots keyed by simulation
// point. The first run of a point populates its entry (taken at the runner's
// Warmup tick); every later run of the same point restores it into a fresh
// build and simulates only the remainder. Entries live in memory; setting
// Dir additionally persists them as files so the warm start survives across
// processes (gem5rtl dse -checkpoint-dir). The zero value is not usable —
// construct with NewCheckpointCache.
type CheckpointCache struct {
	dir string
	mu  sync.Mutex
	mem map[ckptKey][]byte

	// Effectiveness counters, mirrored into the host-wide obs counters so
	// warm-start behaviour is visible in interval dumps and the sweep
	// service's status endpoint. A formerly silent miss or stale-drop now
	// always leaves a trace.
	hits    atomic.Uint64
	misses  atomic.Uint64
	stale   atomic.Uint64
	corrupt atomic.Uint64
}

// CacheStats is a point-in-time view of warm-start cache effectiveness:
// how many runs restored a snapshot (Hits), ran cold because none existed
// (Misses), dropped an unrestorable snapshot and fell back cold (Stale), or
// rejected a persisted file whose integrity trailer did not verify — a torn
// write, a flipped bit — and fell back cold (Corrupt).
type CacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Stale   uint64 `json:"stale"`
	Corrupt uint64 `json:"corrupt"`
}

// Stats samples the cache's effectiveness counters.
func (c *CheckpointCache) Stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(),
		Stale: c.stale.Load(), Corrupt: c.corrupt.Load()}
}

// countHit records a snapshot restore, here and host-wide.
func (c *CheckpointCache) countHit() { c.hits.Add(1); obs.CountCkptHit() }

// countMiss records a cold run due to an absent snapshot.
func (c *CheckpointCache) countMiss() { c.misses.Add(1); obs.CountCkptMiss() }

// countStale records a dropped unrestorable snapshot.
func (c *CheckpointCache) countStale() { c.stale.Add(1); obs.CountCkptStale() }

// countCorrupt records a discarded persisted snapshot that failed its
// integrity check.
func (c *CheckpointCache) countCorrupt() { c.corrupt.Add(1); obs.CountCkptCorrupt() }

// ckptKey identifies a warm-up prefix: the point's behaviour-affecting
// fields plus the warm-up tick. Limit is zeroed — it only bounds the run and
// does not influence the prefix.
type ckptKey struct {
	spec   RunSpec
	warmup sim.Tick
}

// NewCheckpointCache returns an empty cache. dir may be "" for a purely
// in-memory cache, or a directory (created on first store) for cross-process
// persistence.
func NewCheckpointCache(dir string) *CheckpointCache {
	return &CheckpointCache{dir: dir, mem: map[ckptKey][]byte{}}
}

// Len reports how many snapshots the in-memory layer holds.
func (c *CheckpointCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

func (c *CheckpointCache) key(spec RunSpec, warmup sim.Tick) ckptKey {
	spec.Limit = 0
	return ckptKey{spec, warmup}
}

// fileName is deterministic in the key so a later process finds the snapshot
// an earlier one persisted. Stale files (older code, different trace scale)
// are harmless: soc.Restore rejects them by fingerprint and the point falls
// back to a cold run that overwrites the file.
func (c *CheckpointCache) fileName(k ckptKey) string {
	return filepath.Join(c.dir, fmt.Sprintf("%s_n%d_%s_if%d_s%d_w%d.ckpt",
		k.spec.Workload, k.spec.NVDLAs, k.spec.Memory, k.spec.Inflight,
		k.spec.Scale, k.warmup))
}

// Persisted snapshot files carry a 12-byte integrity trailer: a CRC-64/ECMA
// of the snapshot bytes followed by a magic. A file without a valid trailer
// — a torn write the rename discipline could not prevent (power loss), a
// flipped bit on disk, a file from before the trailer existed — is counted,
// deleted and treated as a miss, so on-disk corruption always degrades to a
// cold run instead of restoring a silently wrong machine. In-memory entries
// never carry the trailer: they were produced by this process and are
// trusted as-is.
const ckptTrailerMagic = "gRCK"

var ckptCRCTable = crc64.MakeTable(crc64.ECMA)

// sealSnapshot appends the integrity trailer to a snapshot for persistence.
func sealSnapshot(blob []byte) []byte {
	out := make([]byte, len(blob)+12)
	copy(out, blob)
	binary.LittleEndian.PutUint64(out[len(blob):], crc64.Checksum(blob, ckptCRCTable))
	copy(out[len(blob)+8:], ckptTrailerMagic)
	return out
}

// openSnapshot verifies and strips the integrity trailer of a persisted
// snapshot file.
func openSnapshot(data []byte) ([]byte, bool) {
	if len(data) < 12 || string(data[len(data)-4:]) != ckptTrailerMagic {
		return nil, false
	}
	blob := data[: len(data)-12 : len(data)-12]
	if crc64.Checksum(blob, ckptCRCTable) != binary.LittleEndian.Uint64(data[len(data)-12:]) {
		return nil, false
	}
	return blob, true
}

// load returns the snapshot for (spec, warmup), consulting memory first and
// then the persistence directory, counting the outcome (hit counting is the
// caller's, after the restore succeeds). A persisted file that fails its
// integrity check is counted corrupt, removed, and reported as a miss — the
// point falls back to a cold run that rewrites it.
func (c *CheckpointCache) load(spec RunSpec, warmup sim.Tick) ([]byte, bool) {
	k := c.key(spec, warmup)
	c.mu.Lock()
	blob, ok := c.mem[k]
	c.mu.Unlock()
	if ok {
		return blob, true
	}
	if c.dir == "" {
		c.countMiss()
		return nil, false
	}
	data, err := os.ReadFile(c.fileName(k))
	if err != nil {
		c.countMiss()
		return nil, false
	}
	blob, ok = openSnapshot(data)
	if !ok {
		c.countCorrupt()
		os.Remove(c.fileName(k))
		return nil, false
	}
	c.mu.Lock()
	c.mem[k] = blob
	c.mu.Unlock()
	return blob, true
}

// store records the snapshot in memory and, when Dir is set, on disk
// (best-effort: a full disk degrades to memory-only caching, it does not
// fail the sweep).
func (c *CheckpointCache) store(spec RunSpec, warmup sim.Tick, blob []byte) {
	k := c.key(spec, warmup)
	c.mu.Lock()
	c.mem[k] = blob
	c.mu.Unlock()
	if c.dir == "" {
		return
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return
	}
	// Write-then-rename so concurrent workers never expose a torn file; the
	// integrity trailer catches what the rename cannot (power loss, on-disk
	// bit rot).
	name := c.fileName(k)
	tmp, err := os.CreateTemp(c.dir, ".ckpt-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(sealSnapshot(blob)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), name); err != nil {
		os.Remove(tmp.Name())
	}
}

// drop forgets a snapshot that failed to restore (stale persisted file).
func (c *CheckpointCache) drop(spec RunSpec, warmup sim.Tick) {
	k := c.key(spec, warmup)
	c.mu.Lock()
	delete(c.mem, k)
	c.mu.Unlock()
	if c.dir != "" {
		os.Remove(c.fileName(k))
	}
}
