package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the span that caused this one (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the duration minus the part child spans cover; filled by
	// finish.
	Self int64 `json:"self_ns"`
}

// tracer records spans in memory around the harness's own calls into each
// layer and writes them out when the run ends. A nil *tracer records
// nothing, so the staged runs serve the untraced set-up check unchanged.
//
// A tracer is used from one goroutine; each sweepd client records into a
// fork of the run's tracer, merged back when the pass ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	return id
}

// end closes a span.
func (t *tracer) end(id int) {
	if t != nil && id >= 0 {
		t.spans[id].End = time.Since(t.t0).Nanoseconds()
	}
}

// merge appends the spans of a fork, re-basing their ids.
func (t *tracer) merge(o *tracer) {
	base := len(t.spans)
	for _, s := range o.spans {
		s.ID += base
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// fork returns an empty tracer on the same clock, for a second goroutine.
func (t *tracer) fork() *tracer {
	if t == nil {
		return nil
	}
	return &tracer{t0: t.t0}
}

// finish computes every span's self time.
func (t *tracer) finish() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
}

// durations returns the duration of every span with the given name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// total sums the durations of the named spans, in ns.
func (t *tracer) total(name string) int64 {
	var n int64
	for _, s := range t.spans {
		if s.Name == name {
			n += s.End - s.Start
		}
	}
	return n
}

// spanSummary is one row of the per-name roll-up written beside the spans.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) summary() []spanSummary {
	idx := map[string]int{}
	var out []spanSummary
	for _, s := range t.spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, spanSummary{Name: s.Name})
		}
		out[i].Count++
		out[i].TotalMs += float64(s.End-s.Start) / 1e6
		out[i].SelfMs += float64(s.Self) / 1e6
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// write stores the spans and their roll-up as JSON at path.
func (t *tracer) write(path, workload string, layers map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string             `json:"workload"`
		Summary  []spanSummary      `json:"summary"`
		Layers   map[string]float64 `json:"per_layer"`
		Spans    []span             `json:"spans"`
	}{workload, t.summary(), layers, t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
