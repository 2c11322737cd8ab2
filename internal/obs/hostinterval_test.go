package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gem5rtl/internal/stats"
)

// lockedBuffer lets the test read what the streamer goroutine wrote.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestHostIntervalStreamerConcurrentMutation runs the streamer while worker
// goroutines hammer the sampled values — the sweepd pattern, where counters
// advance on worker goroutines while /v1/stream samples them. Run with the
// race detector. It also checks the telescoping-delta contract: once the
// mutators settle, the column sums over the stream equal the final totals.
func TestHostIntervalStreamerConcurrentMutation(t *testing.T) {
	reg := stats.NewRegistry()
	var done, retried atomic.Uint64
	var mu sync.Mutex
	gauge := 0.0
	reg.Register("points.done", "completed points", func() float64 {
		return float64(done.Load())
	})
	reg.Register("points.retried", "retried points", func() float64 {
		return float64(retried.Load())
	})
	reg.Register("workers.utilization", "busy fraction", func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return gauge
	})

	var out lockedBuffer
	h := &HostIntervalStreamer{Reg: reg, W: &out, Period: time.Millisecond,
		Annotate: func(rec *IntervalRecord) { rec.Extra = map[string]any{"job": "j1"} }}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- h.Run(ctx) }()
	// The streamer's baseline sample precedes its first record; once one
	// record is out the baseline is pinned at zero, so the telescoping sums
	// below have a known start.
	for len(out.Bytes()) == 0 {
		time.Sleep(time.Millisecond)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				done.Add(1)
				if i%7 == 0 {
					retried.Add(1)
				}
				if i%100 == 0 {
					mu.Lock()
					gauge = float64(w*i) / 20000
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	// Mutators have settled; the cancellation-path record samples the final
	// totals, so the stream's deltas must now telescope to them exactly.
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("streamer returned error: %v", err)
	}

	var sumDone, sumRetried float64
	records := 0
	sc := bufio.NewScanner(bytes.NewReader(out.Bytes()))
	for sc.Scan() {
		var rec IntervalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("record %d is not valid JSON: %v\n%s", records, err, sc.Text())
		}
		if rec.Interval != records {
			t.Fatalf("record %d has interval %d", records, rec.Interval)
		}
		sumDone += rec.Stats["points.done"]
		sumRetried += rec.Stats["points.retried"]
		records++
	}
	if records == 0 {
		t.Fatal("streamer emitted no records")
	}
	if want := float64(done.Load()); sumDone != want {
		t.Fatalf("points.done deltas sum to %v, want %v", sumDone, want)
	}
	if want := float64(retried.Load()); sumRetried != want {
		t.Fatalf("points.retried deltas sum to %v, want %v", sumRetried, want)
	}
}

// TestHostIntervalStreamerTelescopes checks the wall-clock streamer's
// telescoping-delta contract on a registry gauge: summing a column across
// the emitted records reproduces the end-to-start total, and the final
// cancellation record is always emitted.
func TestHostIntervalStreamerTelescopes(t *testing.T) {
	var val atomic.Int64
	reg := stats.NewRegistry()
	reg.Register("g", "test gauge", func() float64 { return float64(val.Load()) })

	var buf strings.Builder
	h := &HostIntervalStreamer{Reg: reg, W: &buf, Period: 5 * time.Millisecond,
		Annotate: func(rec *IntervalRecord) { rec.Extra = "note" }}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- h.Run(ctx) }()
	for i := 0; i < 4; i++ {
		time.Sleep(6 * time.Millisecond)
		val.Add(10)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("no records emitted")
	}
	var sum float64
	for _, line := range lines {
		var rec IntervalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad record %q: %v", line, err)
		}
		sum += rec.Stats["g"]
		if rec.Extra == nil {
			t.Errorf("record %d lost its annotation", rec.Interval)
		}
	}
	if sum != float64(val.Load()) {
		t.Errorf("telescoped deltas sum to %v, gauge total is %v", sum, val.Load())
	}
}
