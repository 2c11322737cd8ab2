package sweepd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// StoreQuarantineDir is the subdirectory of a record directory — the result
// store's, or its poison/ — where the boot integrity scan moves files it
// cannot trust, preserving them for a post-mortem instead of silently
// ignoring (or deleting) evidence of corruption.
const StoreQuarantineDir = "quarantine"

// records is a keyed JSON record directory: a memory map in front of a
// directory of <key>.json files, one record each. The result store and the
// poison store are its two instances; each supplies only its record type and
// the validity check a loaded record must pass. dir may be "" for a
// memory-only directory that dies with the process.
type records[T any] struct {
	dir  string
	kind string // names the store in errors and its temp files (".<kind>-*")
	// valid reports whether a loaded record may be trusted under key.
	valid func(key string, rec T) bool
	// quarantined counts the files the boot scan moved aside.
	quarantined int
	mu          sync.Mutex
	mem         map[string]T
}

// openRecords opens (and on first use creates) a record directory and loads
// every record in it. The boot scan trusts nothing: a file that does not
// parse or fails valid — a torn write from a power loss, on-disk bit rot, a
// hand-edited entry — is moved to the quarantine/ subdirectory and counted,
// never loaded. Leftover temp files from a Put interrupted before its rename
// were never committed and are removed.
func openRecords[T any](dir, kind string, valid func(key string, rec T) bool) (*records[T], error) {
	d := &records[T]{dir: dir, kind: kind, valid: valid, mem: map[string]T{}}
	if dir == "" {
		return d, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweepd: %s store: %w", kind, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("sweepd: %s store: %w", kind, err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
		case strings.HasPrefix(name, d.tempPrefix()):
			// An uncommitted temp file: the rename is the commit point, so a
			// crash before it leaves data that was never promised to anyone.
			os.Remove(filepath.Join(dir, name))
		case strings.HasSuffix(name, ".json"):
			key := strings.TrimSuffix(name, ".json")
			if rec, ok := d.read(name, key); ok {
				d.mem[key] = rec
			} else {
				d.quarantine(name)
			}
		}
	}
	return d, nil
}

func (d *records[T]) tempPrefix() string { return "." + d.kind + "-" }

// read loads and checks one record file.
func (d *records[T]) read(name, key string) (T, bool) {
	var rec T
	buf, err := os.ReadFile(filepath.Join(d.dir, name))
	if err != nil || json.Unmarshal(buf, &rec) != nil {
		return rec, false
	}
	return rec, d.valid(key, rec)
}

// quarantine moves a file the boot scan cannot trust into the quarantine/
// subdirectory and counts it. If the move itself fails the file is left in
// place — still counted, still never loaded.
func (d *records[T]) quarantine(name string) {
	d.quarantined++
	qdir := filepath.Join(d.dir, StoreQuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	_ = os.Rename(filepath.Join(d.dir, name), filepath.Join(qdir, name))
}

// Quarantined reports how many files the boot scan moved to the quarantine/
// subdirectory.
func (d *records[T]) Quarantined() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.quarantined
}

// Get returns the record under key.
func (d *records[T]) Get(key string) (T, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rec, ok := d.mem[key]
	return rec, ok
}

// Len reports how many records the directory holds.
func (d *records[T]) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.mem)
}

// List returns every record, sorted by key.
func (d *records[T]) List() []T {
	d.mu.Lock()
	defer d.mu.Unlock()
	keys := make([]string, 0, len(d.mem))
	for k := range d.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]T, len(keys))
	for i, k := range keys {
		out[i] = d.mem[k]
	}
	return out
}

// put records rec under key in memory and, for a directory-backed store,
// durably on disk.
//
// Crash-consistency guarantee: the record is written to a temp file, the
// temp file is fsynced, atomically renamed onto <key>.json, and the
// directory is fsynced. The rename is the commit point — a crash at any
// earlier moment leaves only an uncommitted temp file (removed at the next
// boot), never a half-written record. The two fsyncs extend the guarantee
// from process crash to power loss: the data blocks are on disk before the
// name appears, and the directory entry is on disk before put returns. A
// record the scheduler has published therefore survives anything short of
// media failure, and anything that slips through anyway (bit rot) is caught
// by the boot scan.
func (d *records[T]) put(key string, rec T) error {
	d.mu.Lock()
	d.mem[key] = rec
	d.mu.Unlock()
	if d.dir == "" {
		return nil
	}
	buf, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(d.dir, d.tempPrefix()+"*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(append(buf, '\n'))
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(d.dir, key+".json"))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(d.dir)
}

// Remove deletes the record under key from memory and disk, and reports
// whether there was one.
func (d *records[T]) Remove(key string) bool {
	d.mu.Lock()
	_, ok := d.mem[key]
	delete(d.mem, key)
	d.mu.Unlock()
	if ok && d.dir != "" {
		os.Remove(filepath.Join(d.dir, key+".json"))
	}
	return ok
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
