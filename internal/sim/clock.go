package sim

import "fmt"

// ClockDomain converts between wall-clock frequencies, clock cycles, and
// Ticks for the objects it drives. Several objects may share one domain
// (e.g. all cores at 2 GHz) while others run at a ratio of it (the paper's
// RTLObject frequency parameter).
type ClockDomain struct {
	q      *EventQueue
	period Tick
	freqHz uint64
	name   string
}

// NewClockDomain creates a domain at freqHz. The frequency must divide one
// second into a whole number of picoseconds (true for all realistic SoC
// frequencies; 2 GHz -> 500 ps).
func NewClockDomain(name string, q *EventQueue, freqHz uint64) *ClockDomain {
	if freqHz == 0 {
		panic("sim: zero-frequency clock domain")
	}
	p := uint64(Second) / freqHz
	if p == 0 || uint64(Second)%freqHz != 0 {
		panic(fmt.Sprintf("sim: frequency %d Hz does not yield an integral picosecond period", freqHz))
	}
	return &ClockDomain{q: q, period: Tick(p), freqHz: freqHz, name: name}
}

// Name returns the domain's name.
func (c *ClockDomain) Name() string { return c.name }

// Queue returns the event queue this domain schedules on.
func (c *ClockDomain) Queue() *EventQueue { return c.q }

// Period returns the clock period in Ticks.
func (c *ClockDomain) Period() Tick { return c.period }

// Frequency returns the domain frequency in Hz.
func (c *ClockDomain) Frequency() uint64 { return c.freqHz }

// CurCycle returns the number of complete cycles elapsed at the current tick.
func (c *ClockDomain) CurCycle() uint64 { return uint64(c.q.Now() / c.period) }

// ClockEdge returns the tick of the next clock edge at least n cycles in the
// future, aligned to the period (gem5's clockEdge(Cycles(n))).
func (c *ClockDomain) ClockEdge(n uint64) Tick {
	now := c.q.Now()
	edge := (now / c.period) * c.period
	if edge < now {
		edge += c.period
	} else if edge == now && n == 0 {
		return now
	}
	if edge == now {
		// already on an edge: n cycles ahead
		return now + Tick(n)*c.period
	}
	return edge + Tick(n)*c.period
}

// NextCycle returns the first clock edge strictly after the current tick.
func (c *ClockDomain) NextCycle() Tick {
	now := c.q.Now()
	return ((now / c.period) + 1) * c.period
}

// Cycles converts a cycle count into Ticks.
func (c *ClockDomain) Cycles(n uint64) Tick { return Tick(n) * c.period }

// TicksToCycles converts a tick span into (floor) cycles of this domain.
func (c *ClockDomain) TicksToCycles(t Tick) uint64 { return uint64(t / c.period) }

// Derived returns a new domain at 1/div the frequency of this one, used for
// RTL models clocked slower than the cores (e.g. a 1 GHz PMU under 2 GHz
// cores has div=2).
func (c *ClockDomain) Derived(name string, div uint64) *ClockDomain {
	if div == 0 {
		panic("sim: zero divisor for derived clock domain")
	}
	return &ClockDomain{q: c.q, period: c.period * Tick(div), freqHz: c.freqHz / div, name: name}
}

// Ticker repeatedly invokes a callback on every clock edge of a domain.
// The callback returns false to stop ticking (it can be restarted with
// Start). This is the mechanism behind gem5rtl's clocked objects, including
// RTLObject's per-cycle evaluation of the RTL model.
//
// An owner whose next cycles have a closed form need not take them one event
// at a time: it returns false, parks the event where it next has work
// (StartAt, or nowhere), and later has Credit account for the edges that
// went by and MoveTo bring the event back. Credit keeps the cycle count and
// the queue's dispatch count exactly where a free-running ticker would have
// them, so the machine a checkpoint describes does not depend on the choice.
type Ticker struct {
	dom   *ClockDomain
	ev    *Event
	fn    func(cycle uint64) bool
	cycle uint64
}

// NewTicker creates a ticker on dom invoking fn each cycle with a running
// cycle count. It does not start automatically.
func NewTicker(name string, dom *ClockDomain, prio int, fn func(cycle uint64) bool) *Ticker {
	t := &Ticker{dom: dom, fn: fn}
	t.ev = NewEventPri(name, prio, t.tick)
	return t
}

func (t *Ticker) tick() {
	cyc := t.cycle
	t.cycle++
	if t.fn(cyc) {
		t.dom.q.Schedule(t.ev, t.dom.q.Now()+t.dom.period)
	}
}

// Start schedules the first tick at the next clock edge (or immediately if
// exactly on an edge). Calling Start on a running ticker panics.
func (t *Ticker) Start() {
	t.dom.q.Schedule(t.ev, t.dom.ClockEdge(0))
}

// StartAt schedules the first tick at the given absolute time.
func (t *Ticker) StartAt(when Tick) { t.dom.q.Schedule(t.ev, when) }

// Stop cancels a pending tick; a stopped ticker may be restarted.
func (t *Ticker) Stop() {
	if t.ev.Scheduled() {
		t.dom.q.Deschedule(t.ev)
	}
}

// MoveTo schedules the next tick at the given absolute time, moving the
// pending one if there is one.
func (t *Ticker) MoveTo(when Tick) { t.dom.q.Reschedule(t.ev, when) }

// Owed reports how many clock edges, from the one at tick from onwards, a
// free-running ticker would have run by now. It changes nothing: Credit
// accounts for the same edges. from must be an edge of this ticker, one
// period after the last edge it ran or credited.
//
// An edge at the current tick counts when the dispatch order has moved past
// the ticker's own event key — the order a pending edge event would have
// been held to, including against same-tick children of later events — and
// never from inside the ticker's own callback, which is that edge running.
// So an input arriving now is first seen by edge from + Owed(from) periods.
func (t *Ticker) Owed(from Tick) uint64 {
	q := t.dom.q
	if from > q.now {
		return 0
	}
	n := uint64((q.now-from)/t.dom.period) + 1
	if from+Tick(n-1)*t.dom.period == q.now && !q.passed(t.ev) {
		n--
	}
	return n
}

// Credit accounts for the edges Owed(from) reports without running them: it
// advances the cycle count, counts them on the queue as events applied in
// closed form (EventQueue.Credit, under the ticker's owner) and returns how
// many there were. The caller applies the cycles' effects.
func (t *Ticker) Credit(from Tick) uint64 {
	n := t.Owed(from)
	if n > 0 {
		t.cycle += n
		t.dom.q.Credit(t.ev.owner, n)
	}
	return n
}

// Running reports whether a tick is pending.
func (t *Ticker) Running() bool { return t.ev.Scheduled() }

// Cycle returns the number of times the callback has fired.
func (t *Ticker) Cycle() uint64 { return t.cycle }
