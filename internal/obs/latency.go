package obs

import (
	"fmt"
	"sort"

	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/stats"
)

func errTapCount(got, want int) error {
	return fmt.Errorf("obs: checkpoint has %d latency taps, profile has %d (attach topology must match)", got, want)
}

func errTapName(got, want string) error {
	return fmt.Errorf("obs: checkpoint tap %q does not match profile tap %q", got, want)
}

// inflightRec remembers where and when a packet was first seen by a tap.
type inflightRec struct {
	start sim.Tick
	cmd   port.Cmd
	addr  uint64
}

// LatencyTap is a port.LinkTap that measures packet lifetimes across one
// link: a request is stamped on first sighting and its latency observed when
// the matching response crosses back. ID-less packets (ID 0) and
// posted traffic (no response expected) are ignored. A refused-and-retried
// delivery re-passes the tap; only the first sighting is stamped, so retries
// count toward the packet's latency rather than resetting it.
type LatencyTap struct {
	name     string
	q        *sim.EventQueue
	hist     Histogram
	inflight map[uint64]inflightRec
	chrome   *ChromeTrace
}

// Name returns the tap's label (histogram and Chrome-trace track name).
func (t *LatencyTap) Name() string { return t.name }

// Hist exposes the tap's latency histogram.
func (t *LatencyTap) Hist() *Histogram { return &t.hist }

// InFlight returns the number of stamped packets still awaiting a response.
func (t *LatencyTap) InFlight() int { return len(t.inflight) }

// TapReq implements port.LinkTap.
func (t *LatencyTap) TapReq(pkt *port.Packet) port.TapAction {
	if pkt.ID == 0 || !pkt.NeedsResponse() {
		return port.TapPass
	}
	if _, seen := t.inflight[pkt.ID]; !seen {
		t.inflight[pkt.ID] = inflightRec{start: t.q.Now(), cmd: pkt.Cmd, addr: pkt.Addr}
	}
	return port.TapPass
}

// TapResp implements port.LinkTap.
func (t *LatencyTap) TapResp(pkt *port.Packet) port.TapAction {
	rec, ok := t.inflight[pkt.ID]
	if !ok {
		return port.TapPass
	}
	delete(t.inflight, pkt.ID)
	now := t.q.Now()
	if now < rec.start {
		// Cannot happen on a causal queue; guard anyway so a corrupted
		// restore can never poison the histogram with a wrapped latency.
		return port.TapPass
	}
	t.hist.Observe(uint64(now - rec.start))
	if t.chrome != nil {
		t.chrome.Span(t.name, rec.cmd.String(), rec.addr, rec.start, now)
	}
	return port.TapPass
}

// LatencyProfile owns the LatencyTaps of one System: per-component taps on
// interior links plus end-to-end taps at the requestors' edges. Tap order is
// fixed at attach time, making stats registration and checkpoint layout
// deterministic.
type LatencyProfile struct {
	q      *sim.EventQueue
	taps   []*LatencyTap
	byName map[string]*LatencyTap
	// Chrome, when non-nil, receives one span per completed packet per tap.
	Chrome *ChromeTrace
}

// NewLatencyProfile creates an empty profile for one queue.
func NewLatencyProfile(q *sim.EventQueue) *LatencyProfile {
	return &LatencyProfile{q: q, byName: map[string]*LatencyTap{}}
}

// Tap creates (or returns) the named tap. Interpose it on a link with
// port.Interpose(reqPort, p.Tap("llc.in")).
func (p *LatencyProfile) Tap(name string) *LatencyTap {
	if t, ok := p.byName[name]; ok {
		return t
	}
	t := &LatencyTap{name: name, q: p.q, inflight: map[uint64]inflightRec{}, chrome: p.Chrome}
	p.taps = append(p.taps, t)
	p.byName[name] = t
	return t
}

// Taps returns the profile's taps in attach order.
func (p *LatencyProfile) Taps() []*LatencyTap { return append([]*LatencyTap(nil), p.taps...) }

// Lookup returns the named tap, or nil.
func (p *LatencyProfile) Lookup(name string) *LatencyTap { return p.byName[name] }

// Register adds each tap's summary statistics to the registry under
// obs.lat.<tap>.{samples,mean,min,max,p50,p95,p99}. The quantiles are
// interpolated within their log-2 bucket (Histogram.Quantile), so interval
// stat dumps and the sweepd metrics endpoint see smooth estimates rather
// than power-of-two bucket tops.
func (p *LatencyProfile) Register(r *stats.Registry) {
	for _, t := range p.taps {
		t := t
		base := "obs.lat." + t.name
		r.Register(base+".samples", "packets measured at "+t.name,
			func() float64 { return float64(t.hist.Count()) })
		r.RegisterRatio(base+".mean", "mean packet latency (ticks) at "+t.name,
			func() (float64, float64) { return float64(t.hist.Sum()), float64(t.hist.Count()) })
		r.Register(base+".min", "min packet latency (ticks) at "+t.name,
			func() float64 { return float64(t.hist.Min()) })
		r.Register(base+".max", "max packet latency (ticks) at "+t.name,
			func() float64 { return float64(t.hist.Max()) })
		r.Register(base+".p50", "median packet latency (ticks, interpolated) at "+t.name,
			func() float64 { return t.hist.Quantile(0.50) })
		r.Register(base+".p95", "p95 packet latency (ticks, interpolated) at "+t.name,
			func() float64 { return t.hist.Quantile(0.95) })
		r.Register(base+".p99", "p99 packet latency (ticks, interpolated) at "+t.name,
			func() float64 { return t.hist.Quantile(0.99) })
	}
}

// SaveState implements ckpt.Checkpointable. Taps are written in attach
// order; in-flight stamps are written sorted by packet ID so the stream is
// deterministic regardless of map iteration order.
func (p *LatencyProfile) SaveState(w *ckpt.Writer) error {
	w.Section("obs.latency")
	w.Int(len(p.taps))
	for _, t := range p.taps {
		w.String(t.name)
		if err := t.hist.SaveState(w); err != nil {
			return err
		}
		ids := make([]uint64, 0, len(t.inflight))
		for id := range t.inflight {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		w.Int(len(ids))
		for _, id := range ids {
			rec := t.inflight[id]
			w.U64(id)
			w.U64(uint64(rec.start))
			w.Int(int(rec.cmd))
			w.U64(rec.addr)
		}
	}
	return w.Err()
}

// RestoreState implements ckpt.Checkpointable. The profile must have been
// attached with the same tap topology as at save time.
func (p *LatencyProfile) RestoreState(r *ckpt.Reader) error {
	r.Section("obs.latency")
	n := r.Int()
	if r.Err() == nil && n != len(p.taps) {
		r.Fail(errTapCount(n, len(p.taps)))
		return r.Err()
	}
	for _, t := range p.taps {
		name := r.String()
		if r.Err() == nil && name != t.name {
			r.Fail(errTapName(name, t.name))
			return r.Err()
		}
		if err := t.hist.RestoreState(r); err != nil {
			return err
		}
		m := r.Len()
		t.inflight = make(map[uint64]inflightRec) // m is the stream's word: no size hint
		for i := 0; i < m; i++ {
			id := r.U64()
			rec := inflightRec{
				start: sim.Tick(r.U64()),
				cmd:   port.Cmd(r.Int()),
				addr:  r.U64(),
			}
			if r.Err() != nil {
				break
			}
			t.inflight[id] = rec
		}
	}
	return r.Err()
}
