package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/stats_baseline.golden")

// TestStatsBaseline pins the statistics of a CPU + PMU sort run to
// testdata/stats_baseline.golden, with the self-profiler off and on: the
// profiler is observational, so a profiled run prints the same bytes.
// Regenerate with -update (make goldens).
func TestStatsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := buildBinary(t, dir)
	golden := filepath.Join("testdata", "stats_baseline.golden")
	run := []string{"-cores", "1", "-mem", "DDR4-1ch", "-pmu", "-program", "sort", "-n", "40", "-limit-ms", "200"}
	for _, extra := range [][]string{nil, {"-self-profile", "64", "-self-profile-out", filepath.Join(dir, "prof.folded")}} {
		out, err := exec.Command(bin, append(run, extra...)...).Output()
		if err != nil {
			t.Fatalf("gem5rtl %v: %v", extra, err)
		}
		if *updateGolden && extra == nil {
			if err := os.WriteFile(golden, out, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if !bytes.Equal(out, want) {
			t.Errorf("gem5rtl %v: stats drifted from %s\n--- got ---\n%s--- want ---\n%s", extra, golden, out, want)
		}
	}
}
