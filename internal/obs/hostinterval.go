package obs

import (
	"context"
	"io"
	"net/http"
	"time"

	"gem5rtl/internal/stats"
)

// HostIntervalStreamer is the wall-clock counterpart of IntervalDumper: it
// periodically samples a stats.Registry in host time and writes one
// IntervalRecord per period as JSONL, with Tick carrying elapsed host
// milliseconds. The sweep service uses it to stream live job progress —
// the same telescoping-delta contract as the simulated-time dumper, so
// column sums over a stream equal the end-to-start totals exactly.
type HostIntervalStreamer struct {
	// Reg is the registry to sample.
	Reg *stats.Registry
	// W receives one JSON record per interval. If it implements
	// http.Flusher, every record is flushed immediately (streaming over a
	// chunked HTTP response).
	W io.Writer
	// Period between records (0 = 1s).
	Period time.Duration
	// Annotate, when non-nil, is called on each record before it is
	// written, letting the producer attach context (e.g. a job status
	// snapshot) in the record's Extra field.
	Annotate func(*IntervalRecord)

	out     deltaWriter
	started time.Time
}

// Run streams records until ctx is cancelled, then emits one final record
// (so short streams still deliver the totals) and returns. The first record
// is emitted after one full period. Run returns the first write error, or
// nil on clean cancellation.
func (h *HostIntervalStreamer) Run(ctx context.Context) error {
	period := h.Period
	if period == 0 {
		period = time.Second
	}
	h.out = deltaWriter{reg: h.Reg, w: h.W}
	h.out.start()
	h.started = time.Now()
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := h.emit(); err != nil {
				return err
			}
		case <-ctx.Done():
			return h.emit()
		}
	}
}

func (h *HostIntervalStreamer) emit() error {
	if err := h.out.emit(uint64(time.Since(h.started).Milliseconds()), h.Annotate); err != nil {
		return err
	}
	if f, ok := h.W.(http.Flusher); ok {
		f.Flush()
	}
	return nil
}
