package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestInputsFollowTheSeed(t *testing.T) {
	for _, small := range []bool{false, true} {
		a, b := Generate(7, small).Bytes(), Generate(7, small).Bytes()
		if !bytes.Equal(a, b) {
			t.Errorf("small=%v: one seed gave two different inputs", small)
		}
		if bytes.Equal(a, Generate(8, small).Bytes()) {
			t.Errorf("small=%v: seeds 7 and 8 gave the same inputs", small)
		}
	}
}

func TestEveryStratumIsPresentForAnySeed(t *testing.T) {
	gold, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, small := range []bool{false, true} {
		st := stratumFor(small)
		for seed := uint64(0); seed < 50; seed++ {
			in := Generate(seed, small)
			if in.SortN < st.sortMin || in.SortN > st.sortMax {
				t.Fatalf("seed %d: sort size %d outside [%d, %d]", seed, in.SortN, st.sortMin, st.sortMax)
			}
			for _, withPMU := range []bool{false, true} {
				if _, ok := gold[sortKey(in.SortN, in.SleepUs, withPMU)]; !ok {
					t.Fatalf("seed %d: no golden entry for %s", seed, sortKey(in.SortN, in.SleepUs, withPMU))
				}
			}
			if _, ok := gold[fig5Key(in.SortN, in.SleepUs)]; !ok {
				t.Fatalf("seed %d: no golden entry for %s", seed, fig5Key(in.SortN, in.SleepUs))
			}
			seen := map[string]int{}
			for _, spec := range in.Grid {
				seen[pointKey(spec)]++
				if _, ok := gold[pointKey(spec)]; !ok {
					t.Fatalf("seed %d: no golden entry for %v", seed, spec)
				}
			}
			for _, spec := range append(st.techPoints(), st.baselines()...) {
				if seen[pointKey(spec)] != 1 {
					t.Fatalf("seed %d small=%v: stratum %v appears %d times in the grid", seed, small, spec, seen[pointKey(spec)])
				}
			}
			if n := seen[pointKey(st.spec(st.workloads[0], 4, "DDR4-1ch", st.inflights[0]))]; n != 1 {
				t.Fatalf("seed %d: the contended 4-NVDLA x DDR4-1ch cell is missing", seed)
			}
			// Half of each client's points are the other's too.
			mine := [2]map[string]bool{{}, {}}
			for c, jobs := range in.Jobs {
				for _, job := range jobs {
					if len(job) > st.jobSize {
						t.Fatalf("seed %d: job of %d points", seed, len(job))
					}
					for _, spec := range job {
						mine[c][pointKey(spec)] = true
					}
				}
			}
			shared := 0
			for k := range mine[0] {
				if mine[1][k] {
					shared++
				}
			}
			if 2*shared != len(mine[0]) || 2*shared != len(mine[1]) {
				t.Fatalf("seed %d: clients hold %d and %d points, %d shared", seed, len(mine[0]), len(mine[1]), shared)
			}
		}
	}
}

// TestWorkloadsSmall runs one small pass of all six workloads, untraced and
// traced, so the tier-1 tests exercise the whole harness.
func TestWorkloadsSmall(t *testing.T) {
	log, err := os.Create(filepath.Join(t.TempDir(), "log"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(context.Background(), def, runOpts{
				seed: 3, traced: traced, small: true, tmpDir: t.TempDir(), log: log})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", def.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics printed, %d defined", def.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s not printed", def.Name, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s: metric %s printed with unit %q, defined with %q", def.Name, d.Name, v.Unit, d.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: metric %s = %v", def.Name, d.Name, v.Value)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", def.Name, d.Name, v.Value)
				}
			}
			if traced && def.Name != "sweepd-hit" {
				var shares float64
				for _, l := range shareLayers {
					shares += res.Metrics[shareMetric(l)].Value
				}
				if math.Abs(shares-1) > 0.01 {
					t.Errorf("%s: layer shares sum to %v of soc.run, want 1", def.Name, shares)
				}
			}
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON holds BENCHMARK.json and the command together: every
// name in one is in the other, with the same unit, direction and bound.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if strings.Join(doc.Command, " ") != "go run ./bench" || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) || len(workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the command", len(doc.Workloads), len(workloads))
	}
	used := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if used[n] {
			t.Errorf("name %q used twice", n)
		}
		used[n] = true
	}
	for i, w := range doc.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the command (or their reasons differ)", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, limit int) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the command, limit %d", kind, len(got), len(want), limit)
		}
		for i, m := range got {
			name(m.Name)
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the command", kind, i, m, d)
			}
			if (m.Bound == nil) != (d.Bound == 0) || (m.Bound != nil && (*m.Bound != d.Bound || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the command's %v", kind, m.Name, d.Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, 16)
	same("per_layer", doc.PerLayer, perLayer, 128)
	if !used["setup_s"] {
		t.Error("no setup_s metric")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall []float64) string {
		var rf resultFile
		for _, v := range wall {
			rf.Runs = append(rf.Runs, runRecord{Workload: "dse-grid", result: result{
				Metrics: map[string]value{"wall_s": {v, "s"}}}})
		}
		b, _ := json.Marshal(rf)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", []float64{1.00, 1.01, 0.99, 1.00})
	for _, c := range []struct {
		name    string
		wall    []float64
		verdict string
		worse   bool
	}{
		{"same.json", []float64{1.02, 1.01, 1.00, 1.03}, "ok", false},
		{"slow.json", []float64{1.31, 1.30, 1.29, 1.30}, "worse", true},
		{"wide.json", []float64{0.7, 1.0, 1.3, 1.6}, "unresolved", false},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, base, write(c.name, c.wall))
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse || !strings.Contains(out.String(), c.verdict+" (base a") {
			t.Errorf("%s: worse=%v, output:\n%s", c.name, worse, out.String())
		}
	}
}
