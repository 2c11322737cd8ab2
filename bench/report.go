package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// paperRange is the paper's own figure for a workload's cosim_overhead,
// printed beside ours.
var paperRange = map[string]string{
	"pmu-cosim":    "paper Table 2: 1.09-1.24",
	"pmu-waveform": "paper Table 2: 3.16-7.27",
	"nvdla-cosim":  "paper Table 3: 1.54-3.12",
}

// printRun writes a run's human-readable table: every metric by name with
// its unit, and the sample counts behind the medians.
func printRun(w io.Writer, def workloadDef, in *Inputs, r *recorder, res *result, traced bool, errs []string) {
	mode := "end-to-end, tracing off"
	defs := endToEnd
	if traced {
		mode = "per-layer, traced run"
		defs = perLayer
	}
	fmt.Fprintf(w, "workload %s  seed %d  (%s)\n", def.Name, in.Seed, mode)
	fmt.Fprintf(w, "  passes %d  ops %d  pairs %d  points %d  attempted %d  failed %d\n",
		len(r.passS), r.ops, len(r.ratios), r.points, res.Attempted, res.Failed)
	for _, d := range defs {
		v := res.Metrics[d.Name]
		note := ""
		switch d.Name {
		case "wall_s":
			note = fmt.Sprintf("best of %d passes", len(r.passS))
		case "op_p50_ms", "op_tail_ms":
			note = fmt.Sprintf("best pass of %d, %d ops a pass", len(r.passS), r.ops/max(1, len(r.passS)))
		case "cosim_overhead":
			note = fmt.Sprintf("median of %d pairs", len(r.ratios))
			if p := paperRange[def.Name]; p != "" {
				note += "; " + p
			}
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups", setups)
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-6s %s\n", d.Name, v.Value, v.Unit, note)
	}
	for _, e := range errs {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}

// runRecord is one run in a result file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// resultFile is what suite mode writes and -compare reads.
type resultFile struct {
	Seed    uint64      `json:"seed"`
	Seconds float64     `json:"seconds"`
	NProc   int         `json:"nproc"`
	Go      string      `json:"go"`
	Runs    []runRecord `json:"runs"`
}

// suite runs every workload in a process of its own, so peak_rss_mb is per
// workload, `runs` times with consecutive seeds, and writes the set's result
// file; with sets == 2 it does so twice and compares the two.
func suite(seed uint64, seconds float64, trace, runs, sets int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var files []string
	failed := false
	for set := 1; set <= sets; set++ {
		rf := resultFile{Seed: seed, Seconds: seconds, NProc: runtime.NumCPU(), Go: runtime.Version()}
		for _, def := range workloads {
			for i := 0; i < runs; i++ {
				s := seed + uint64(i)
				cmd := exec.Command(self, "--workload", def.Name, "--seed", strconv.FormatUint(s, 10),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
				cmd.Stderr = os.Stderr
				out, runErr := cmd.Output()
				os.Stdout.Write(out)
				rec := runRecord{Workload: def.Name, Seed: s, Trace: trace}
				if err := json.Unmarshal(lastLine(out), &rec.result); err != nil {
					return fmt.Errorf("%s: no result line: %v (%v)", def.Name, err, runErr)
				}
				failed = failed || !rec.Correct
				rf.Runs = append(rf.Runs, rec)
			}
		}
		path := filepath.Join(outDir, fmt.Sprintf("results-set%d.json", set))
		b, err := json.MarshalIndent(rf, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
		files = append(files, path)
	}
	if sets == 2 {
		worse, err := compareFiles(os.Stdout, files[0], files[1])
		if err != nil {
			return err
		}
		failed = failed || worse
	}
	if failed {
		return fmt.Errorf("a check failed or a set compared worse")
	}
	return nil
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), which is
// what the contract's spread is defined on. One value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// compareFiles prints one row per (workload, metric) of two result files:
// both medians with their quartiles, the ratio with its base, and a verdict.
// "worse" means b's median is worse than a's by more than the metric's
// bound; "unresolved" that the spread of either side is wider than the
// bound, so the comparison cannot tell. Per-layer metrics have no bound and
// read "-". It reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	load := func(path string) (map[[2]string][]float64, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		vals := map[[2]string][]float64{}
		for _, r := range rf.Runs {
			for name, v := range r.Metrics {
				k := [2]string{r.Workload, name}
				vals[k] = append(vals[k], v.Value)
			}
		}
		return vals, nil
	}
	a, err := load(pathA)
	if err != nil {
		return false, err
	}
	b, err := load(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-13s %-32s %12s %-25s %12s %-25s %8s  %s\n",
		"workload", "metric", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "b/a", "verdict")
	anyWorse := false
	for _, def := range workloads {
		for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			k := [2]string{def.Name, d.Name}
			if len(a[k]) == 0 || len(b[k]) == 0 {
				continue
			}
			a1, am, a3 := quartiles(a[k])
			b1, bm, b3 := quartiles(b[k])
			verdict := "-"
			if d.Bound > 0 {
				verdict = "ok"
				change := ratio(bm-am, am)
				if d.Better == "higher" {
					change = -change
				}
				switch {
				case ratio(a3-a1, am) > d.Bound || ratio(b3-b1, bm) > d.Bound:
					verdict = "unresolved"
				case change > d.Bound:
					verdict = "worse"
					anyWorse = true
				}
			}
			fmt.Fprintf(w, "%-13s %-32s %12.6g %-25s %12.6g %-25s %8.4f  %s (base a, n=%d/%d)\n",
				def.Name, d.Name, am, fmt.Sprintf("[%.6g, %.6g]", a1, a3),
				bm, fmt.Sprintf("[%.6g, %.6g]", b1, b3), ratio(bm, am), verdict, len(a[k]), len(b[k]))
		}
	}
	return anyWorse, nil
}
