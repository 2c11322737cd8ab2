package main

import (
	"encoding/json"
	"fmt"
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

// TestCheckpointRestoreMatchesStraightRun checks the -checkpoint-at/-restore
// round trip through a file: a two-accelerator sanity3 point saved at 1 µs
// and resumed by a second process prints exactly what one uninterrupted run
// prints, statistics included. A resume from a damaged checkpoint file, or
// under flags that do not match the checkpointed configuration, must exit
// non-zero.
func TestCheckpointRestoreMatchesStraightRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := buildBinary(t, dir)
	ckptPath := filepath.Join(dir, "point.ckpt")
	point := []string{"-nvdla", "2", "-dla-workload", "sanity3", "-dla-scale", "64",
		"-cores", "1", "-program", "none", "-mem", "DDR4-1ch", "-inflight", "32"}
	run := func(extra ...string) ([]byte, error) {
		cmd := exec.Command(bin, append(append([]string(nil), point...), extra...)...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			err = fmt.Errorf("%w\n%s", err, stderr.String())
		}
		return out, err
	}

	straight, err := run()
	if err != nil {
		t.Fatalf("straight run: %v", err)
	}
	if _, err := run("-checkpoint-at", "1us", "-checkpoint-out", ckptPath); err != nil {
		t.Fatalf("checkpointing run: %v", err)
	}
	restored, err := run("-restore", ckptPath)
	if err != nil {
		t.Fatalf("restored run: %v", err)
	}
	if !strings.Contains(string(straight), "# accelerators finished at") {
		t.Fatalf("straight run did not finish its accelerators:\n%s", straight)
	}
	if string(restored) != string(straight) {
		t.Errorf("restored run's output differs from the straight run's:\nrestored:\n%s\nstraight:\n%s", restored, straight)
	}

	if _, err := run("-restore", ckptPath, "-inflight", "64"); err == nil {
		t.Error("resume under a different -inflight exited cleanly")
	}
	data, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(ckptPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run("-restore", ckptPath); err == nil {
		t.Error("resume from a damaged checkpoint file exited cleanly")
	}
}
