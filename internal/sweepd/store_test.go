package sweepd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gem5rtl/internal/sim"
)

// TestStoreCrashRestartNoLoss is the kill-and-restart durability test:
// results committed by concurrent Puts — interleaved with the debris a
// crashed server leaves behind (uncommitted temp files, a torn entry, a
// mismatched entry) — are all present after reopening, byte for byte. The
// debris is quarantined or removed, never loaded, and never costs a
// committed result.
func TestStoreCrashRestartNoLoss(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	const n = 24
	specs := make(map[string]sim.Tick, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		spec := testSpec([]string{"HBM", "DDR4-1ch", "DDR4-4ch", "GDDR5"}[i%4], 1+i)
		ticks := sim.Tick(1000 + 17*i)
		mu.Lock()
		specs[spec.Fingerprint()] = ticks
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := st.Put(spec, ticks); err != nil {
				t.Errorf("put: %v", err)
			}
		}()
	}
	wg.Wait()

	plantCrashDebris(t, dir, ".result-crashed")

	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != n {
		t.Fatalf("restarted store has %d results, want %d — results were lost", re.Len(), n)
	}
	for fp, ticks := range specs {
		e, ok := re.Get(fp)
		if !ok || e.Ticks != ticks {
			t.Errorf("result %s: got (%d, %v), want (%d, true)", fp[:8], e.Ticks, ok, ticks)
		}
	}
	checkBootScan(t, dir, ".result-crashed", re.Quarantined())
}

// tornName is the fingerprint-style name plantCrashDebris gives its torn
// record.
var tornName = strings.Repeat("a", 64) + ".json"

// plantCrashDebris leaves in dir what a crashed server leaves in a record
// directory: an uncommitted temp file (Put's commit point is the rename)
// and a torn record, which the next boot must quarantine.
func plantCrashDebris(t *testing.T, dir, temp string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, temp), []byte(`{"spec":{"work`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, tornName), []byte(`{"spec":{"workload":"sa`), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkBootScan asserts that a reopened record directory removed the
// planted temp file and moved the torn record to quarantine/, counting it.
func checkBootScan(t *testing.T, dir, temp string, quarantined int) {
	t.Helper()
	if quarantined != 1 {
		t.Errorf("quarantined %d files, want 1 (the torn json)", quarantined)
	}
	if _, err := os.Stat(filepath.Join(dir, temp)); !os.IsNotExist(err) {
		t.Error("uncommitted temp file survived the boot scan")
	}
	if _, err := os.Stat(filepath.Join(dir, tornName)); !os.IsNotExist(err) {
		t.Error("torn record still sits in the directory root")
	}
	if _, err := os.Stat(filepath.Join(dir, StoreQuarantineDir, tornName)); err != nil {
		t.Errorf("torn record was not moved to quarantine/: %v", err)
	}
}

// TestPoisonStoreBootScan: the poison store boots like the result store — a
// leftover temp file is removed and a record that does not parse is moved
// aside and counted, while a committed record survives the restart.
func TestPoisonStoreBootScan(t *testing.T) {
	dir := t.TempDir()
	ps, err := OpenPoisonStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp := testSpec("HBM", 16).Fingerprint()
	if err := ps.Put(fp, PoisonRecord{Spec: testSpec("HBM", 16), Attempts: 3,
		Class: "retries-exhausted", Errors: []string{"a", "b", "c"}}); err != nil {
		t.Fatal(err)
	}
	plantCrashDebris(t, dir, ".poison-123")

	re, err := OpenPoisonStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := re.Get(fp); re.Len() != 1 || !ok || rec.Fingerprint != fp || rec.Attempts != 3 {
		t.Fatalf("reopened poison store: len %d, record %+v ok=%v; want the committed record only", re.Len(), rec, ok)
	}
	checkBootScan(t, dir, ".poison-123", re.Quarantined())
}

// FuzzStore feeds arbitrary bytes to the boot integrity scan as a plausibly
// named result file: OpenStore must never panic, never load an entry whose
// spec does not hash to the file name, and must keep a known-good entry
// loadable regardless of what sits next to it.
func FuzzStore(f *testing.F) {
	f.Add([]byte(`{"spec":{"workload":"sanity3","nvdlas":1,"memory":"HBM","inflight":16,"scale":32,"limit":8000000000000},"ticks":123}`))
	f.Add([]byte(`{"spec":`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"ticks":9}`))
	f.Add([]byte(strings.Repeat(`[`, 10000)))
	good := testSpec("HBM", 16)
	if buf, err := json.Marshal(storeEntry{Spec: good, Ticks: 777}); err == nil {
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		first, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := first.Put(good, 777); err != nil {
			t.Fatal(err)
		}
		// The fuzz payload lands under a well-formed fingerprint-style name
		// (that is the hard case: garbage under a silly name never matches).
		name := fmt.Sprintf("%064x", len(data))
		if err := os.WriteFile(filepath.Join(dir, name+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}

		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if e, ok := st.Get(good.Fingerprint()); !ok || e.Ticks != 777 {
			t.Fatalf("good entry lost next to fuzz payload: %+v ok=%v", e, ok)
		}
		if e, ok := st.Get(name); ok && e.Spec.Fingerprint() != name {
			t.Fatalf("loaded an entry whose spec does not hash to its name: %+v", e)
		}
		if st.Len()+st.Quarantined() != 2 {
			t.Fatalf("len %d + quarantined %d != 2 files", st.Len(), st.Quarantined())
		}
	})
}
