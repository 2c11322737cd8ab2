// Package stats provides the gem5-style statistics registry gem5rtl
// components dump at interval boundaries and at end of simulation —
// the counterpart of gem5's stats.txt that §6.1 compares the PMU against.
package stats

import (
	"fmt"
	"io"
	"sort"
)

// Kind is what a statistic is, which says what it is over an interval.
type Kind uint8

const (
	// Counter is a running total: over an interval, its change.
	Counter Kind = iota
	// Ratio is one running total over another (0 while the second is 0):
	// over an interval, the ratio of their changes.
	Ratio
)

// Value is a single named statistic, sampled lazily at dump time: a Counter
// reads Get, a Ratio reads Parts, the two totals it divides.
type Value struct {
	Name  string
	Desc  string
	Kind  Kind
	Get   func() float64
	Parts func() (num, den float64)
}

// Sample reads the statistic.
func (v *Value) Sample() float64 {
	if v.Kind == Ratio {
		return Div(v.Parts())
	}
	return v.Get()
}

// Registry holds the statistics of one simulated system.
type Registry struct {
	values []Value
	byName map[string]int
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]int{}}
}

// Register adds a Counter statistic; duplicate names are rejected with a
// panic, as they indicate mis-wired components.
func (r *Registry) Register(name, desc string, get func() float64) {
	r.add(Value{Name: name, Desc: desc, Get: get})
}

// RegisterRatio adds a Ratio statistic: num / den of the totals parts
// reads, 0 while den is 0.
func (r *Registry) RegisterRatio(name, desc string, parts func() (num, den float64)) {
	r.add(Value{Name: name, Desc: desc, Kind: Ratio, Parts: parts})
}

func (r *Registry) add(v Value) {
	if _, dup := r.byName[v.Name]; dup {
		panic("stats: duplicate statistic " + v.Name)
	}
	r.byName[v.Name] = len(r.values)
	r.values = append(r.values, v)
}

// Div is num / den, 0 when den is 0: a Ratio's value.
func Div(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// RegisterCounter registers a uint64 counter by pointer.
func (r *Registry) RegisterCounter(name, desc string, p *uint64) {
	r.Register(name, desc, func() float64 { return float64(*p) })
}

// Get returns the current value of a named statistic.
func (r *Registry) Get(name string) (float64, bool) {
	i, ok := r.byName[name]
	if !ok {
		return 0, false
	}
	return r.values[i].Sample(), true
}

// Snapshot samples every statistic. The returned map has no defined order;
// any code path that serializes a snapshot must use SnapshotSorted (or
// Names) instead, so emitted output is deterministic.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64, len(r.values))
	for i := range r.values {
		out[r.values[i].Name] = r.values[i].Sample()
	}
	return out
}

// Sample is one (name, value) pair from an ordered snapshot.
type Sample struct {
	Name  string
	Value float64
}

// Names returns every registered statistic name, sorted. The slice is
// freshly allocated; callers may keep it.
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.values))
	for name := range r.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SnapshotSorted samples every statistic in sorted-name order — the
// deterministic form for serialization (interval dumps, golden files).
func (r *Registry) SnapshotSorted() []Sample {
	names := r.Names()
	out := make([]Sample, len(names))
	for i, name := range names {
		out[i] = Sample{Name: name, Value: r.values[r.byName[name]].Sample()}
	}
	return out
}

// SortedValues returns every registered statistic in sorted-name order,
// descriptions included — the form exporters that need metadata (the
// Prometheus text renderer) consume.
func (r *Registry) SortedValues() []Value {
	out := make([]Value, 0, len(r.values))
	for _, name := range r.Names() {
		out = append(out, r.values[r.byName[name]])
	}
	return out
}

// Dump writes all statistics in gem5's "name value # desc" format, sorted.
func (r *Registry) Dump(w io.Writer) {
	fmt.Fprintln(w, "---------- Begin Simulation Statistics ----------")
	for _, name := range r.Names() {
		v := r.values[r.byName[name]]
		fmt.Fprintf(w, "%-50s %14.6g  # %s\n", v.Name, v.Sample(), v.Desc)
	}
	fmt.Fprintln(w, "---------- End Simulation Statistics   ----------")
}

// Delta computes after-minus-before for interval statistics (e.g. IPC over
// a 10,000-cycle window in the PMU experiment).
func Delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
