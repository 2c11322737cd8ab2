package sweepd

import (
	"gem5rtl/internal/experiments"
	"gem5rtl/internal/sim"
)

// storeEntry is one persisted result: the spec (so the file is
// self-describing and auditable) and its simulated completion time. Only
// successful runs are stored — a failed point re-simulates on the next
// submission instead of caching its error forever.
type storeEntry struct {
	Spec  experiments.RunSpec `json:"spec"`
	Ticks sim.Tick            `json:"ticks"`
}

// Store is the persistent result store: a record directory of
// <fingerprint>.json files. The fingerprint is the hex SHA-256 of the spec's
// canonical JSON (experiments.RunSpec.Fingerprint), so two servers pointed at
// the same directory agree on keys byte-for-byte, and a restarted server
// recovers every previously simulated point at boot.
type Store struct {
	*records[storeEntry]
}

// OpenStore opens (and on first use creates) a store rooted at dir, loading
// every valid persisted result. dir may be "" for a purely in-memory store
// that does not survive restarts. A file whose content does not parse, whose
// stored spec does not validate, or whose spec does not hash to the file's
// fingerprint name is quarantined at boot (see Quarantined), never loaded.
func OpenStore(dir string) (*Store, error) {
	d, err := openRecords(dir, "result", func(fp string, ent storeEntry) bool {
		return ent.Spec.Fingerprint() == fp && ent.Spec.Validate() == nil
	})
	if err != nil {
		return nil, err
	}
	return &Store{d}, nil
}

// Put records a result in memory and, for a directory-backed store, durably
// on disk before it returns: a result the scheduler has published as done
// survives a crash or power loss (see records.put).
func (st *Store) Put(spec experiments.RunSpec, ticks sim.Tick) error {
	return st.put(spec.Fingerprint(), storeEntry{Spec: spec, Ticks: ticks})
}
