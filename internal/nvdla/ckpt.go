package nvdla

import (
	"fmt"
	"sort"

	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/rtlobject"
)

// SaveState captures the accelerator model: CSB staging and committed layers,
// run/irq flags, and the full execution state of the current layer — tile
// fetch/compute progress, the activation/weight/output stream cursors, the
// outstanding-read table (sorted by ID for a deterministic stream) and queued
// output writes. It implements ckpt.Checkpointable so the enclosing
// RTLObject can delegate to it.
func (w *Wrapper) SaveState(cw *ckpt.Writer) error {
	cw.Section("nvdla." + w.cfg.Name)
	saveLayerCfg(cw, &w.staged)
	cw.Int(len(w.layers))
	for i := range w.layers {
		saveLayerCfg(cw, &w.layers[i])
	}
	cw.Bool(w.running)
	cw.Bool(w.done)
	cw.Bool(w.irq)
	cw.Int(w.layerIdx)
	cw.Int(len(w.tiles))
	for i := range w.tiles {
		cw.Int(w.tiles[i].needed)
		cw.Int(w.tiles[i].arrived)
		cw.Int(w.tiles[i].issued)
	}
	cw.Int(w.outPerTile)
	cw.Int(w.fetchTile)
	cw.Int(w.computeTile)
	cw.U32(w.computeLeft)
	cw.U64(w.inCur)
	cw.U64(w.wtCur)
	cw.U64(w.inEnd)
	cw.U64(w.wtEnd)
	cw.U64(w.outCur)
	cw.U64(w.nextID)
	reads := make([]readSlot, 0, w.reads.n)
	for _, s := range w.reads.slots {
		if s.id != 0 {
			reads = append(reads, s)
		}
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i].id < reads[j].id })
	cw.Int(len(reads))
	for _, s := range reads {
		cw.U64(s.id)
		cw.Int(s.tile)
	}
	cw.Int(w.writesOut)
	cw.Int(len(w.pendWrites) - w.pendHead)
	for i := w.pendHead; i < len(w.pendWrites); i++ {
		rtlobject.SaveMemRequest(cw, &w.pendWrites[i])
	}
	cw.U64(w.stats.BusyCycles)
	cw.U64(w.stats.StallCycles)
	cw.U64(w.stats.IdleCycles)
	cw.U64(w.stats.BytesRead)
	cw.U64(w.stats.BytesWritten)
	cw.U64(w.stats.TilesDone)
	cw.U64(w.stats.LayersDone)
	return cw.Err()
}

// RestoreState reinstates a checkpointed accelerator. The caller must not
// Reset or re-play the configuration trace afterwards: register state,
// committed layers and in-flight tiles all come from the checkpoint.
func (w *Wrapper) RestoreState(r *ckpt.Reader) error {
	r.Section("nvdla." + w.cfg.Name)
	restoreLayerCfg(r, &w.staged)
	n := r.Len()
	w.layers = nil
	for i := 0; i < n && r.Err() == nil; i++ {
		var l layerCfg
		restoreLayerCfg(r, &l)
		w.layers = append(w.layers, l)
	}
	w.running = r.Bool()
	w.done = r.Bool()
	w.irq = r.Bool()
	w.layerIdx = r.Len()
	n = r.Len()
	w.tiles = nil // grown as read: n is the stream's word
	for i := 0; i < n && r.Err() == nil; i++ {
		w.tiles = append(w.tiles, tileState{needed: r.Len(), arrived: r.Len(), issued: r.Len()})
	}
	w.outPerTile = r.Len()
	w.fetchTile = r.Len()
	w.computeTile = r.Len()
	w.computeLeft = r.U32()
	w.inCur = r.U64()
	w.wtCur = r.U64()
	w.inEnd = r.U64()
	w.wtEnd = r.U64()
	w.outCur = r.U64()
	w.nextID = r.U64()
	n = r.Len()
	w.reads = readTable{}
	for i, first, last := 0, uint64(0), uint64(0); i < n && r.Err() == nil; i++ {
		id, tile := r.U64(), r.Len()
		if i == 0 {
			first = id
		}
		// Saved ascending, all minted, each for a tile of the layer:
		// anything else, or a window far wider than a running machine
		// leaves in flight (which would size the ring), is a corrupt stream.
		if r.Err() == nil && (id <= last || id > w.nextID || id-first >= 1<<20 || tile >= len(w.tiles)) {
			r.Fail(fmt.Errorf("nvdla %s: checkpoint read %d (tile %d) out of order or range", w.cfg.Name, id, tile))
			break
		}
		w.reads.put(id, tile)
		last = id
	}
	w.writesOut = r.Len()
	n = r.Len()
	w.pendWrites = nil
	w.pendHead = 0
	for i := 0; i < n && r.Err() == nil; i++ {
		w.pendWrites = append(w.pendWrites, rtlobject.LoadMemRequest(r))
	}
	w.stats.BusyCycles = r.U64()
	w.stats.StallCycles = r.U64()
	w.stats.IdleCycles = r.U64()
	w.stats.BytesRead = r.U64()
	w.stats.BytesWritten = r.U64()
	w.stats.TilesDone = r.U64()
	w.stats.LayersDone = r.U64()
	return r.Err()
}

func saveLayerCfg(w *ckpt.Writer, l *layerCfg) {
	w.U64(l.inAddr)
	w.U64(l.wtAddr)
	w.U64(l.outAddr)
	w.U32(l.inBytes)
	w.U32(l.wtBytes)
	w.U32(l.outBytes)
	w.U32(l.tileBytes)
	w.U32(l.cyclesPerTile)
}

func restoreLayerCfg(r *ckpt.Reader, l *layerCfg) {
	l.inAddr = r.U64()
	l.wtAddr = r.U64()
	l.outAddr = r.U64()
	l.inBytes = r.U32()
	l.wtBytes = r.U32()
	l.outBytes = r.U32()
	l.tileBytes = r.U32()
	l.cyclesPerTile = r.U32()
}
