package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// hostEvents counts simulator events dispatched across every system on this
// host (all sweep workers). It feeds events-per-second in HostMonitor.
var hostEvents atomic.Uint64

// CountEvents adds n dispatched events to the host-wide counter. Experiment
// runners call it once per completed point; per-event counting would touch
// an atomic on the hot path.
func CountEvents(n uint64) { hostEvents.Add(n) }

// HostEvents returns the host-wide dispatched-event total.
func HostEvents() uint64 { return hostEvents.Load() }

// StartPprof serves net/http/pprof on addr (e.g. "localhost:6060") using a
// private mux, so profiling the simulator never requires the default mux.
// It returns a stop function that closes the listener.
func StartPprof(addr string) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: pprof listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return func() { srv.Close() }, nil
}

// HostMonitor periodically samples host-side runtime metrics — wall clock,
// goroutines, heap bytes, simulator events and events/second — and writes
// them as JSONL. It gives Table 2/3-style overhead numbers a host profile
// to stand on.
type HostMonitor struct {
	// Interval between samples (0 = 1s).
	Interval time.Duration
	// W receives one JSON object per sample.
	W io.Writer

	mu      sync.Mutex
	stopCh  chan struct{}
	doneCh  chan struct{}
	started time.Time
	lastEv  uint64
	lastAt  time.Time
}

type hostSample struct {
	WallMs       int64   `json:"wall_ms"`
	Goroutines   int     `json:"goroutines"`
	HeapBytes    uint64  `json:"heap_bytes"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// Start launches the sampling goroutine. Safe to call once.
func (m *HostMonitor) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopCh != nil {
		return
	}
	interval := m.Interval
	if interval == 0 {
		interval = time.Second
	}
	m.stopCh = make(chan struct{})
	m.doneCh = make(chan struct{})
	m.started = time.Now()
	m.lastAt = m.started
	m.lastEv = HostEvents()
	go m.loop(interval, m.stopCh, m.doneCh)
}

// Stop halts sampling, emitting one final sample so short runs still
// produce a record.
func (m *HostMonitor) Stop() {
	m.mu.Lock()
	stop, done := m.stopCh, m.doneCh
	m.stopCh, m.doneCh = nil, nil
	m.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

func (m *HostMonitor) loop(interval time.Duration, stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.emit()
		case <-stop:
			m.emit()
			return
		}
	}
}

func (m *HostMonitor) emit() {
	if m.W == nil {
		return
	}
	now := time.Now()
	ev := HostEvents()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	dt := now.Sub(m.lastAt).Seconds()
	var eps float64
	if dt > 0 {
		eps = float64(ev-m.lastEv) / dt
	}
	s := hostSample{
		WallMs:       now.Sub(m.started).Milliseconds(),
		Goroutines:   runtime.NumGoroutine(),
		HeapBytes:    ms.HeapAlloc,
		Events:       ev,
		EventsPerSec: eps,
	}
	if b, err := json.Marshal(s); err == nil {
		fmt.Fprintf(m.W, "%s\n", b)
	}
	m.lastEv, m.lastAt = ev, now
}
