// Package prof turns the event-kernel self-profiler's raw attribution
// (sim.Profiler) into the forms users consume: sorted attribution tables
// with host-time shares, folded-stack flame-graph exports, pprof-compatible
// profiles, and Prometheus text-exposition metric families for the sweep
// service's fleet metrics plane.
//
// The split of responsibilities mirrors the rest of the observability stack:
// the sim package owns the zero-cost-when-off hot path and the exact,
// deterministic per-owner event counts; this package owns everything that
// formats, aggregates or serialises those counts, none of which may ever
// touch the dispatch loop.
package prof

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"gem5rtl/internal/sim"
)

// Sample is one attribution row: a (component, kind) owner with its exact
// event/phase count and sampled host nanoseconds. Event counts are
// machine-independent and deterministic; HostNS is sampled wall time and is
// excluded from every determinism or baseline comparison (the BENCH gating
// policy).
type Sample struct {
	Component string `json:"component"`
	Kind      string `json:"kind"`
	Events    uint64 `json:"events"`
	HostNS    int64  `json:"host_ns,omitempty"`
}

// Report is a set of attribution samples, optionally carrying the host wall
// time of the run(s) it covers. Reports merge across runs (sweep points) by
// (component, kind).
type Report struct {
	Samples []Sample `json:"samples"`
	WallNS  int64    `json:"wall_ns,omitempty"`
}

// FromQueue builds a Report from the profiler attached to q, or nil when
// profiling is off.
func FromQueue(q *sim.EventQueue) *Report {
	p := q.SelfProfiler()
	if p == nil {
		return nil
	}
	stats := p.Stats()
	r := &Report{Samples: make([]Sample, len(stats)), WallNS: p.WallNS()}
	for i, s := range stats {
		r.Samples[i] = Sample{Component: s.Component, Kind: s.Kind, Events: s.Events, HostNS: s.HostNS}
	}
	return r
}

// FromQueues is FromQueue on the one queue a system has. It exists for its
// one caller, bench/stage.go, which passes the system's queue as a
// one-element list; everything else calls FromQueue.
func FromQueues(qs ...*sim.EventQueue) *Report { return FromQueue(qs[0]) }

// Merge folds other's samples into r by (component, kind), summing counts,
// times and wall time. A nil other is a no-op.
func (r *Report) Merge(other *Report) {
	if other == nil {
		return
	}
	idx := make(map[[2]string]int, len(r.Samples))
	for i, s := range r.Samples {
		idx[[2]string{s.Component, s.Kind}] = i
	}
	for _, s := range other.Samples {
		k := [2]string{s.Component, s.Kind}
		if i, ok := idx[k]; ok {
			r.Samples[i].Events += s.Events
			r.Samples[i].HostNS += s.HostNS
		} else {
			idx[k] = len(r.Samples)
			r.Samples = append(r.Samples, s)
		}
	}
	r.WallNS += other.WallNS
}

// Clone returns a deep copy of the report.
func (r *Report) Clone() *Report {
	if r == nil {
		return nil
	}
	c := &Report{Samples: make([]Sample, len(r.Samples)), WallNS: r.WallNS}
	copy(c.Samples, r.Samples)
	return c
}

// TotalNS returns the summed sampled host time across all samples.
func (r *Report) TotalNS() int64 {
	var t int64
	for _, s := range r.Samples {
		t += s.HostNS
	}
	return t
}

// TotalEvents returns the summed event/phase count across all samples.
func (r *Report) TotalEvents() uint64 {
	var t uint64
	for _, s := range r.Samples {
		t += s.Events
	}
	return t
}

// Sorted returns the samples ordered by descending host time, breaking ties
// by descending event count and then by name, so tables and exports are
// stable for a given measurement.
func (r *Report) Sorted() []Sample {
	out := make([]Sample, len(r.Samples))
	copy(out, r.Samples)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.HostNS != b.HostNS {
			return a.HostNS > b.HostNS
		}
		if a.Events != b.Events {
			return a.Events > b.Events
		}
		if a.Component != b.Component {
			return a.Component < b.Component
		}
		return a.Kind < b.Kind
	})
	return out
}

// Row is one rendered attribution-table row. Share is the row's fraction of
// the report's total sampled host time (falling back to event counts when no
// time was sampled, e.g. on very short runs); shares across a Table sum to 1.
type Row struct {
	Component string  `json:"component"`
	Kind      string  `json:"kind"`
	Events    uint64  `json:"events"`
	HostNS    int64   `json:"host_ns,omitempty"`
	Share     float64 `json:"share"`
}

// Table returns the top-k attribution rows by host-time share plus, when
// rows were cut, a final "(other)" row absorbing the remainder, so the
// shares of the returned rows always sum to 1 (given any activity at all).
// k <= 0 returns every row.
func (r *Report) Table(k int) []Row {
	sorted := r.Sorted()
	totalNS := r.TotalNS()
	totalEv := r.TotalEvents()
	share := func(s Sample) float64 {
		if totalNS > 0 {
			return float64(s.HostNS) / float64(totalNS)
		}
		if totalEv > 0 {
			return float64(s.Events) / float64(totalEv)
		}
		return 0
	}
	if k <= 0 || k >= len(sorted) {
		rows := make([]Row, len(sorted))
		for i, s := range sorted {
			rows[i] = Row{s.Component, s.Kind, s.Events, s.HostNS, share(s)}
		}
		return rows
	}
	rows := make([]Row, 0, k+1)
	for _, s := range sorted[:k] {
		rows = append(rows, Row{s.Component, s.Kind, s.Events, s.HostNS, share(s)})
	}
	var rest Row
	rest.Component, rest.Kind = "(other)", ""
	for _, s := range sorted[k:] {
		rest.Events += s.Events
		rest.HostNS += s.HostNS
		rest.Share += share(s)
	}
	return append(rows, rest)
}

// WriteTable renders a human-readable attribution table (top-k rows; k <= 0
// for all) to w, one row per line:
//
//	73.2%  812.4ms  1204883  nvdla0/rtl-comb
func (r *Report) WriteTable(w io.Writer, k int) error {
	for _, row := range r.Table(k) {
		name := row.Component
		if row.Kind != "" {
			name += "/" + row.Kind
		}
		_, err := fmt.Fprintf(w, "%6.1f%%  %9.1fms  %12d  %s\n",
			row.Share*100, float64(row.HostNS)/1e6, row.Events, name)
		if err != nil {
			return err
		}
	}
	return nil
}

// Export writes the report to path, choosing the format by extension: a
// ".pb.gz" suffix selects the gzipped pprof protobuf profile (go tool pprof),
// anything else the folded-stacks text (flamegraph.pl, speedscope). An empty
// path renders the top-15 attribution table to table instead — the
// -self-profile-out flag default across the binaries.
func (r *Report) Export(path string, table io.Writer) error {
	if path == "" {
		return r.WriteTable(table, 15)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	write := r.WriteFolded
	if strings.HasSuffix(path, ".pb.gz") {
		write = r.WritePprof
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// WriteFolded writes the report as Brendan Gregg folded stacks — one
// "component;kind value" line per sample — directly consumable by
// flamegraph.pl or speedscope. The value is sampled host microseconds when
// any time was collected, otherwise the exact event count.
func (r *Report) WriteFolded(w io.Writer) error {
	useNS := r.TotalNS() > 0
	for _, s := range r.Sorted() {
		frames := s.Component
		if s.Kind != "" {
			frames += ";" + s.Kind
		}
		v := s.Events
		if useNS {
			v = uint64(s.HostNS / 1000)
			if v == 0 && s.HostNS > 0 {
				v = 1
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", frames, v); err != nil {
			return err
		}
	}
	return nil
}
