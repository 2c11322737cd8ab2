package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"gem5rtl/internal/sim"
	"gem5rtl/internal/stats"
)

// TestIntervalDeltasSumToTotals is the acceptance property: the per-name
// column sums of every interval record (including the final partial one
// emitted by Close) equal the end-of-run registry totals exactly.
func TestIntervalDeltasSumToTotals(t *testing.T) {
	q := sim.NewEventQueue()
	reg := stats.NewRegistry()
	var hits, misses uint64
	reg.RegisterCounter("c.hits", "", &hits)
	reg.RegisterCounter("c.misses", "", &misses)

	// A workload that bumps counters at irregular ticks, past several
	// interval boundaries and beyond the last full one.
	for i := sim.Tick(1); i <= 25; i++ {
		at := i * 137
		q.ScheduleFunc("work", at, func() {
			hits += 3
			if at%2 == 0 {
				misses++
			}
		})
	}

	var buf bytes.Buffer
	d, err := NewIntervalDumper(q, reg, &buf, 500, "jsonl")
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	// Polls run up to RunUntil's bound, so run just past the last workload
	// tick, mid-interval, to leave a partial interval for Close.
	q.RunUntil(25*137 + 30)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	sums := map[string]float64{}
	records := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec struct {
			Tick     uint64             `json:"tick"`
			Interval int                `json:"interval"`
			Stats    map[string]float64 `json:"stats"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("record %d is not valid JSON: %v", records, err)
		}
		if rec.Interval != records {
			t.Fatalf("interval numbering %d, want %d", rec.Interval, records)
		}
		for k, v := range rec.Stats {
			sums[k] += v
		}
		records++
	}
	if records < 3 {
		t.Fatalf("only %d records; workload should span several intervals", records)
	}
	if sums["c.hits"] != float64(hits) || sums["c.misses"] != float64(misses) {
		t.Fatalf("delta sums %v != totals hits=%d misses=%d", sums, hits, misses)
	}
}

func TestIntervalCSV(t *testing.T) {
	q := sim.NewEventQueue()
	reg := stats.NewRegistry()
	var x uint64
	reg.RegisterCounter("b.x", "", &x)
	reg.Register("a.y", "", func() float64 { return float64(x) * 2 })

	var buf bytes.Buffer
	d, err := NewIntervalDumper(q, reg, &buf, 100, "csv")
	if err != nil {
		t.Fatal(err)
	}
	q.ScheduleFunc("work", 150, func() { x = 7 })
	d.Start()
	q.RunUntil(210)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "tick,interval,a.y,b.x" {
		t.Fatalf("header = %q (names must be sorted)", lines[0])
	}
	if len(lines) < 3 {
		t.Fatalf("lines = %v", lines)
	}
	// First interval (tick 100): nothing happened yet.
	if lines[1] != "100,0,0,0" {
		t.Fatalf("first record = %q", lines[1])
	}
	// Second interval (tick 200) sees the tick-150 update.
	if lines[2] != "200,1,14,7" {
		t.Fatalf("second record = %q", lines[2])
	}
}

func TestIntervalDumperRejectsBadConfig(t *testing.T) {
	q := sim.NewEventQueue()
	reg := stats.NewRegistry()
	if _, err := NewIntervalDumper(q, reg, &bytes.Buffer{}, 100, "xml"); err == nil {
		t.Fatal("bad format accepted")
	}
	if _, err := NewIntervalDumper(q, reg, &bytes.Buffer{}, 0, "jsonl"); err == nil {
		t.Fatal("zero interval accepted")
	}
}

// TestIntervalDumperIsCheckpointSafe: the dumper polls, so a dumped run
// schedules and dispatches nothing a bare run does not, and its records
// still land on every boundary.
func TestIntervalDumperIsCheckpointSafe(t *testing.T) {
	run := func(dump bool) (*sim.EventQueue, string) {
		q := sim.NewEventQueue()
		reg := stats.NewRegistry()
		var x uint64
		reg.RegisterCounter("x", "", &x)
		for at := sim.Tick(30); at <= 330; at += 60 {
			q.ScheduleFunc("work", at, func() { x++ })
		}
		var buf bytes.Buffer
		d, err := NewIntervalDumper(q, reg, &buf, 100, "csv")
		if err != nil {
			t.Fatal(err)
		}
		if dump {
			d.Start()
			if q.Pending() != 6 {
				t.Fatalf("Start scheduled an event: %d pending, want the 6 workload events", q.Pending())
			}
		}
		q.RunUntil(350)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		return q, buf.String()
	}
	bare, _ := run(false)
	dumped, out := run(true)
	if bare.Dispatched() != dumped.Dispatched() || bare.Now() != dumped.Now() {
		t.Fatalf("dumped run dispatched %d events to tick %d, bare run %d to %d",
			dumped.Dispatched(), dumped.Now(), bare.Dispatched(), bare.Now())
	}
	if want := "tick,interval,x\n100,0,2\n200,1,1\n300,2,2\n350,3,1\n"; out != want {
		t.Fatalf("records = %q, want %q", out, want)
	}
}
