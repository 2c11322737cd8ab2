package nvdla

import (
	"fmt"
	"sort"

	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/rtlobject"
)

// Checkpoint saves or restores the accelerator model: CSB staging and
// committed layers, run/irq flags, and the full execution state of the
// current layer — tile fetch/compute progress, the activation/weight/output
// stream cursors, the outstanding-read table (saved sorted by ID for a
// deterministic stream) and queued output writes. It implements
// ckpt.Checkpointable so the enclosing RTLObject can delegate to it. After a
// restore the caller must not Reset or re-play the configuration trace:
// register state, committed layers and in-flight tiles all come from the
// checkpoint.
func (w *Wrapper) Checkpoint(cs *ckpt.Stream) error {
	cs.Section("nvdla." + w.cfg.Name)
	checkpointLayer(cs, &w.staged)
	ckpt.Slice(cs, &w.layers, checkpointLayer)
	cs.Bool(&w.running)
	cs.Bool(&w.done)
	cs.Bool(&w.irq)
	cs.Len(&w.layerIdx)
	ckpt.Slice(cs, &w.tiles, func(cs *ckpt.Stream, t *tileState) {
		cs.Len(&t.needed)
		cs.Len(&t.arrived)
		cs.Len(&t.issued)
	})
	cs.Len(&w.outPerTile)
	cs.Len(&w.fetchTile)
	cs.Len(&w.computeTile)
	cs.U32(&w.computeLeft)
	cs.U64(&w.inCur)
	cs.U64(&w.wtCur)
	cs.U64(&w.inEnd)
	cs.U64(&w.wtEnd)
	cs.U64(&w.outCur)
	cs.U64(&w.nextID)
	var reads []readSlot
	if !cs.Restoring() {
		for _, s := range w.reads.slots {
			if s.id != 0 {
				reads = append(reads, s)
			}
		}
		sort.Slice(reads, func(i, j int) bool { return reads[i].id < reads[j].id })
	} else {
		w.reads = readTable{}
	}
	var first, last uint64
	ckpt.Slice(cs, &reads, func(cs *ckpt.Stream, s *readSlot) {
		cs.U64(&s.id)
		cs.Len(&s.tile)
		if !cs.Restoring() || cs.Err() != nil {
			return
		}
		if first == 0 {
			first = s.id
		}
		// Saved ascending, all minted, each for a tile of the layer:
		// anything else, or a window far wider than a running machine
		// leaves in flight (which would size the ring), is a corrupt stream.
		if s.id <= last || s.id > w.nextID || s.id-first >= 1<<20 || s.tile >= len(w.tiles) {
			cs.Fail(fmt.Errorf("nvdla %s: checkpoint read %d (tile %d) out of order or range", w.cfg.Name, s.id, s.tile))
			return
		}
		w.reads.put(s.id, s.tile)
		last = s.id
	})
	cs.Len(&w.writesOut)
	pend := w.pendWrites[w.pendHead:]
	ckpt.Slice(cs, &pend, rtlobject.CheckpointMemRequest)
	if cs.Restoring() {
		w.pendWrites, w.pendHead = pend, 0
	}
	st := &w.stats
	cs.U64(&st.BusyCycles)
	cs.U64(&st.StallCycles)
	cs.U64(&st.IdleCycles)
	cs.U64(&st.BytesRead)
	cs.U64(&st.BytesWritten)
	cs.U64(&st.TilesDone)
	cs.U64(&st.LayersDone)
	return cs.Err()
}

func checkpointLayer(s *ckpt.Stream, l *layerCfg) {
	s.U64(&l.inAddr)
	s.U64(&l.wtAddr)
	s.U64(&l.outAddr)
	s.U32(&l.inBytes)
	s.U32(&l.wtBytes)
	s.U32(&l.outBytes)
	s.U32(&l.tileBytes)
	s.U32(&l.cyclesPerTile)
}
