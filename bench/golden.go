package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"

	"gem5rtl/internal/experiments"
)

// goldenEntry is the reference outcome of one deterministic run: the final
// tick and the simulated statistics a host-side optimisation must leave
// alone. The checkpoint digest (StateHash) is deliberately not part of it:
// it covers the checkpoint format, which a simplification may change.
type goldenEntry struct {
	Ticks          uint64   `json:"ticks"`
	CommittedInsts uint64   `json:"committed_insts,omitempty"`
	NumCycles      uint64   `json:"num_cycles,omitempty"`
	MemBytesRead   uint64   `json:"mem_bytes_read,omitempty"`
	NVDLAMemReads  []uint64 `json:"nvdla_mem_reads,omitempty"`
	// PMUInsts is the PMU-counted instruction total of a Figure 5 run, whose
	// CommittedInsts is the core's own count.
	PMUInsts uint64 `json:"pmu_insts,omitempty"`
}

// golden maps a run's key to its reference outcome.
type golden map[string]goldenEntry

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (golden, error) {
	g := golden{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("bench/golden.json: %w", err)
	}
	return g, nil
}

func sortKey(n, sleepUs int, withPMU bool) string {
	return fmt.Sprintf("sort n=%d sleep=%d pmu=%t", n, sleepUs, withPMU)
}

func fig5Key(n, sleepUs int) string { return fmt.Sprintf("fig5 n=%d sleep=%d", n, sleepUs) }

func pointKey(spec experiments.RunSpec) string { return spec.String() }

// check compares a full staged observation with the reference.
func (g golden) check(key string, got goldenEntry) error {
	want, ok := g[key]
	if !ok {
		return fmt.Errorf("%s: no golden entry", key)
	}
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("%s: got %+v, golden %+v", key, got, want)
	}
	return nil
}

// checkTicks compares the one number experiments.Run returns.
func (g golden) checkTicks(key string, ticks uint64) error {
	want, ok := g[key]
	if !ok {
		return fmt.Errorf("%s: no golden entry", key)
	}
	if want.Ticks != ticks {
		return fmt.Errorf("%s: finished at tick %d, golden %d", key, ticks, want.Ticks)
	}
	return nil
}

// cosimSpecs are the Table 3 full-system points of the nvdla-cosim workload.
func cosimSpecs(scale int) []experiments.RunSpec {
	var out []experiments.RunSpec
	for _, wl := range experiments.Workloads() {
		for _, mem := range []string{"ideal", "DDR4-4ch"} {
			out = append(out, experiments.RunSpec{Workload: wl, NVDLAs: 1, Memory: mem,
				Inflight: 240, Scale: scale, Limit: simLimit})
		}
	}
	return out
}

// fig5Params is the Figure 5 run behind pmu.inst_err_ppm and pmu.ipc_err_max.
func fig5Params(in *Inputs) experiments.Fig5Params {
	return experiments.Fig5Params{N: in.SortN, SleepUs: in.SleepUs, IntervalCycles: 10000}
}

// updateGolden regenerates bench/golden.json: every run any seed can ask
// for, in both sizes, each executed twice and required to agree with itself.
func updateGolden(path string) error {
	ctx := context.Background()
	g := golden{}
	twice := func(key string, run func() (goldenEntry, error)) error {
		a, err := run()
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		b, err := run()
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		if !reflect.DeepEqual(a, b) {
			return fmt.Errorf("%s: two runs disagree: %+v vs %+v", key, a, b)
		}
		g[key] = a
		fmt.Fprintf(os.Stderr, "golden: %s\n", key)
		return nil
	}
	for _, small := range []bool{false, true} {
		st := stratumFor(small)
		for n := st.sortMin; n <= st.sortMax; n++ {
			in := Generate(0, small)
			in.SortN = n
			for _, withPMU := range []bool{false, true} {
				err := twice(sortKey(n, in.SleepUs, withPMU), func() (goldenEntry, error) {
					o, err := stagedSort(nil, -1, 0, n, in.SleepUs, withPMU, false, false)
					if err != nil {
						return goldenEntry{}, err
					}
					return o.Result, nil
				})
				if err != nil {
					return err
				}
			}
			err := twice(fig5Key(n, in.SleepUs), func() (goldenEntry, error) {
				r, err := experiments.RunFigure5Ctx(ctx, fig5Params(in))
				if err != nil {
					return goldenEntry{}, err
				}
				return goldenEntry{Ticks: uint64(r.SimTicks), CommittedInsts: r.Gem5TotalInsts,
					PMUInsts: r.PMUTotalInsts}, nil
			})
			if err != nil {
				return err
			}
		}
		in := Generate(0, small)
		for _, spec := range append(cosimSpecs(in.CosimScale), in.Grid...) {
			spec := spec
			err := twice(pointKey(spec), func() (goldenEntry, error) {
				o, err := stagedPoint(ctx, nil, -1, 0, spec, false)
				if err != nil {
					return goldenEntry{}, err
				}
				return o.Result, nil
			})
			if err != nil {
				return err
			}
		}
	}
	keys := make([]string, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// One entry per line, sorted, so a changed result is a one-line diff.
	buf := []byte("{\n")
	for i, k := range keys {
		kb, _ := json.Marshal(k)
		vb, err := json.Marshal(g[k])
		if err != nil {
			return err
		}
		buf = append(buf, fmt.Sprintf("  %s: %s", kb, vb)...)
		if i < len(keys)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, "}\n"...)
	return os.WriteFile(path, buf, 0o644)
}
