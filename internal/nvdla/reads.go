package nvdla

// readTable maps each outstanding read's ID to the tile it fills. It is a
// power-of-two ring indexed by ID: IDs are minted in increasing order, so the
// live ones span a window, and the ring doubles only when a new read would
// land on a live one — at a new high water of that window. Past it, issuing
// and retiring reads allocates nothing, whatever the host's map hash seed.
type readTable struct {
	slots []readSlot
	n     int // live entries
}

// readSlot is one ring entry; id 0 marks a free slot (IDs start at 1).
type readSlot struct {
	id   uint64
	tile int
}

// put records that read id (> 0, not live) fills tile.
func (t *readTable) put(id uint64, tile int) {
	for len(t.slots) == 0 || t.slots[id&uint64(len(t.slots)-1)].id != 0 {
		// Double: two IDs apart in the old ring stay apart in the new one.
		old := t.slots
		t.slots = make([]readSlot, max(1024, 2*len(old)))
		for _, s := range old {
			if s.id != 0 {
				t.slots[s.id&uint64(len(t.slots)-1)] = s
			}
		}
	}
	t.slots[id&uint64(len(t.slots)-1)] = readSlot{id, tile}
	t.n++
}

// take retires read id and returns its tile; ok is false for an ID that is
// not outstanding.
func (t *readTable) take(id uint64) (tile int, ok bool) {
	if id == 0 || len(t.slots) == 0 {
		return 0, false
	}
	s := &t.slots[id&uint64(len(t.slots)-1)]
	if s.id != id {
		return 0, false
	}
	tile, *s = s.tile, readSlot{}
	t.n--
	return tile, true
}
