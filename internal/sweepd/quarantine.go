package sweepd

import (
	"fmt"

	"gem5rtl/internal/experiments"
)

// PoisonDir is the sibling subdirectory of a result store where quarantined
// point records persist — next to the results, surviving restarts, keyed by
// the same fingerprints.
const PoisonDir = "poison"

// PoisonRecord is the structured failure record of a quarantined point: a
// point that exhausted its retry budget (or failed permanently) is persisted
// here and served as an error on every later submission instead of
// re-simulating forever. The record is self-describing — the spec, the
// attempt count, the class and every attempt's error — so an operator can
// judge whether to un-quarantine it.
type PoisonRecord struct {
	// Fingerprint is the point's result-store key (also the file name).
	Fingerprint string `json:"fingerprint"`
	// Spec is the quarantined simulation point.
	Spec experiments.RunSpec `json:"spec"`
	// Attempts is how many executions were spent before quarantining.
	Attempts int `json:"attempts"`
	// Class is the terminal classification: "permanent" (first failure was
	// unretryable) or "retries-exhausted" (transient failures ate the
	// attempt budget).
	Class string `json:"class"`
	// Errors lists every attempt's error, in attempt order.
	Errors []string `json:"errors"`
}

// Err renders the error a quarantined point serves to submitters.
func (r PoisonRecord) Err() error {
	last := "unknown failure"
	if n := len(r.Errors); n > 0 {
		last = r.Errors[n-1]
	}
	return fmt.Errorf("sweepd: quarantined (%s) after %d attempt(s); un-quarantine %s to retry; last error: %s",
		r.Class, r.Attempts, r.Fingerprint, last)
}

// PoisonStore persists quarantine records as <fingerprint>.json files: a
// record directory like the result store, booted the same way (temp files
// removed, a record that does not parse or whose fingerprint disagrees with
// its file name quarantined and counted — an unreadable quarantine record
// must never block a point from running). dir may be "" for a memory-only
// store that dies with the process.
type PoisonStore struct {
	*records[PoisonRecord]
}

// OpenPoisonStore opens (creating if needed) a poison store rooted at dir,
// loading every valid record.
func OpenPoisonStore(dir string) (*PoisonStore, error) {
	d, err := openRecords(dir, "poison", func(fp string, rec PoisonRecord) bool {
		return rec.Fingerprint == fp
	})
	if err != nil {
		return nil, err
	}
	return &PoisonStore{d}, nil
}

// Put records a quarantined point in memory and, for a directory-backed
// store, durably on disk, before the scheduler publishes the point as
// quarantined.
func (ps *PoisonStore) Put(fp string, rec PoisonRecord) error {
	rec.Fingerprint = fp
	return ps.put(fp, rec)
}
