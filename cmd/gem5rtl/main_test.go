package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBinary compiles the gem5rtl command into dir and returns its path.
func buildBinary(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "gem5rtl")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestInterruptedRunLeavesValidOutputFiles is the regression test for the
// truncated-trace bug: a run aborted mid-flight (here by a blown host
// -timeout; a watchdog trip takes the same fatal path) must still flush and
// close its -trace-out and -stats-out writers, leaving a parseable Chrome
// trace JSON and well-formed interval-stats JSONL rather than a truncated
// array.
func TestInterruptedRunLeavesValidOutputFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := buildBinary(t, dir)
	tracePath := filepath.Join(dir, "trace.json")
	statsPath := filepath.Join(dir, "stats.jsonl")

	// Four full-scale googlenet accelerators take seconds of host time, far
	// longer than the 150ms budget, so the run is reliably cut off
	// mid-flight. (One finishes 0.28 ms of simulated time in about the
	// budget, with only two context checks, so it sometimes ran to the end.)
	cmd := exec.Command(bin,
		"-nvdla", "4", "-dla-workload", "googlenet", "-dla-scale", "1",
		"-cores", "1", "-program", "none", "-limit-ms", "60000",
		"-timeout", "150ms",
		"-trace-out", tracePath,
		"-stats-interval", "100us", "-stats-out", statsPath)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("expected the run to be interrupted by -timeout, but it exited cleanly:\n%s", out)
	}
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("running gem5rtl: %v\n%s", err, out)
	}

	traceBytes, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("interrupted run left no trace file: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceBytes, &doc); err != nil {
		t.Fatalf("interrupted run's -trace-out is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatalf("interrupted run's trace has no events; output:\n%s", out)
	}

	statsBytes, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatalf("interrupted run left no interval-stats file: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(statsBytes)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatalf("interrupted run's interval-stats file is empty")
	}
	for i, line := range lines {
		var row map[string]any
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("interval-stats line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
	}
}
