package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gem5rtl/internal/sim"
	"gem5rtl/internal/stats"
)

// IntervalRecord is one emitted interval: the boundary time (a simulated
// tick for IntervalDumper, elapsed host milliseconds for HostIntervalStreamer),
// a zero-based interval index, and each stat over the interval (a counter's
// change, a ratio of the changes of its totals). Extra carries producer-specific context (e.g. the sweep
// service's job status snapshot on a progress stream).
type IntervalRecord struct {
	Tick     uint64             `json:"tick"`
	Interval int                `json:"interval"`
	Stats    map[string]float64 `json:"stats"`
	Extra    any                `json:"extra,omitempty"`
}

// deltaWriter is the sample-and-delta core both interval producers share:
// it fixes a registry's stat set (sorted by name), remembers the previous
// sample, and writes one record per call with every stat over the interval
// since then, as JSONL or CSV: a counter's change, and a ratio recomputed
// from the changes of its two totals (stats.Kind). Counter records
// telescope: the per-name column sums equal the change between the first
// and the last sample exactly.
type deltaWriter struct {
	reg   *stats.Registry
	w     io.Writer
	csv   bool
	vals  []stats.Value
	names []string
	// prev is the previous sample: a counter's value, or a ratio's
	// numerator, at 2i, and a ratio's denominator at 2i+1.
	prev []float64
	n    int
}

// start takes the baseline sample and writes the CSV header.
func (d *deltaWriter) start() {
	d.vals = d.reg.SortedValues()
	d.names = make([]string, len(d.vals))
	for i, v := range d.vals {
		d.names[i] = v.Name
	}
	d.prev = d.sample()
	if d.csv {
		fmt.Fprintf(d.w, "tick,interval,%s\n", strings.Join(d.names, ","))
	}
}

func (d *deltaWriter) sample() []float64 {
	out := make([]float64, 2*len(d.vals))
	for i, v := range d.vals {
		if v.Kind == stats.Ratio {
			out[2*i], out[2*i+1] = v.Parts()
		} else {
			out[2*i] = v.Get()
		}
	}
	return out
}

// over is stat i over the interval from sample prev to sample cur.
func (d *deltaWriter) over(i int, prev, cur []float64) float64 {
	if d.vals[i].Kind == stats.Ratio {
		return stats.Div(cur[2*i]-prev[2*i], cur[2*i+1]-prev[2*i+1])
	}
	return cur[2*i] - prev[2*i]
}

// emit writes the record of the interval ending at tick — annotate, when
// non-nil, may fill its Extra — and starts the next interval.
func (d *deltaWriter) emit(tick uint64, annotate func(*IntervalRecord)) error {
	cur := d.sample()
	var err error
	if d.csv {
		var sb strings.Builder
		sb.WriteString(strconv.FormatUint(tick, 10))
		sb.WriteByte(',')
		sb.WriteString(strconv.Itoa(d.n))
		for i := range d.names {
			sb.WriteByte(',')
			sb.WriteString(strconv.FormatFloat(d.over(i, d.prev, cur), 'g', -1, 64))
		}
		_, err = fmt.Fprintln(d.w, sb.String())
	} else {
		deltas := make(map[string]float64, len(d.names))
		for i, name := range d.names {
			deltas[name] = d.over(i, d.prev, cur)
		}
		rec := IntervalRecord{Tick: tick, Interval: d.n, Stats: deltas}
		if annotate != nil {
			annotate(&rec)
		}
		var b []byte
		if b, err = json.Marshal(rec); err == nil { // map keys marshal sorted
			_, err = fmt.Fprintf(d.w, "%s\n", b)
		}
	}
	d.prev = cur
	d.n++
	return err
}

// IntervalDumper periodically samples a stats.Registry in simulated time and
// writes delta records — the per-interval counterpart of the end-of-run
// Dump, enabling Figure-5-style counter-vs-stats validation per window.
//
// Counter records telescope: every interval's delta is (current -
// previous), and Close emits the final partial interval, so the per-name
// column sums of a full run equal the end-of-run totals exactly. A ratio
// (stats.Ratio) is its two totals' interval changes divided, so it reads
// what the end-of-run value would over that interval alone.
//
// The dumper polls the run loop (sim.EventQueue.Poll) rather than scheduling
// events, so a dumped run is the same machine as a bare one — dispatch
// count and checkpoint bytes included — and may be saved at any
// point with the dumper running. A record observes the post-update state of
// its boundary tick: every event at or before it has run.
type IntervalDumper struct {
	q        *sim.EventQueue
	out      deltaWriter
	interval sim.Tick
	stop     func()
	lastTick sim.Tick
	started  bool
	closed   bool
}

// NewIntervalDumper creates a dumper emitting one record per interval in
// the given format ("jsonl" or "csv").
func NewIntervalDumper(q *sim.EventQueue, reg *stats.Registry, w io.Writer, interval sim.Tick, format string) (*IntervalDumper, error) {
	switch format {
	case "jsonl", "csv":
	default:
		return nil, fmt.Errorf("obs: unknown interval stats format %q (want jsonl or csv)", format)
	}
	if interval == 0 {
		return nil, fmt.Errorf("obs: interval stats period must be > 0")
	}
	return &IntervalDumper{q: q, out: deltaWriter{reg: reg, w: w, csv: format == "csv"}, interval: interval}, nil
}

// Start fixes the stat-name set (sorted), takes the baseline sample, and
// registers the poll that dumps every interval from now on.
func (d *IntervalDumper) Start() {
	if d.started {
		return
	}
	d.started = true
	d.out.start()
	d.lastTick = d.q.Now()
	d.stop = d.q.Poll(d.q.Now()+d.interval, func() sim.Tick {
		d.emit()
		return d.q.Now() + d.interval
	})
}

// Close emits the final partial interval (if simulated time has advanced
// past the last record) and stops the dumper. After Close, column sums
// equal end-of-run totals.
func (d *IntervalDumper) Close() error {
	if !d.started || d.closed {
		return nil
	}
	d.closed = true
	d.stop()
	if d.q.Now() > d.lastTick {
		d.emit()
	}
	return nil
}

// emit writes the interval ending now. A failed write does not stop the
// run: the dumper is an observer.
func (d *IntervalDumper) emit() {
	_ = d.out.emit(uint64(d.q.Now()), nil)
	d.lastTick = d.q.Now()
}
