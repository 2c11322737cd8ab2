package mem

import (
	"gem5rtl/internal/obs"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

// DRAMCtrl is an event-driven multi-channel DRAM controller. It exposes one
// response port; requests are interleaved across channels at 64-byte block
// granularity. Each channel schedules at most one command at a time
// (FR-FCFS: row hits first, then oldest), models per-bank open rows and a
// shared data bus, prioritises reads, and drains writes in batches governed
// by high/low watermarks — the gem5 memory-controller behaviour the paper's
// DSE leans on (severe DDR4-1ch contention at high in-flight counts).
type DRAMCtrl struct {
	cfg   DRAMConfig
	q     *sim.EventQueue
	prt   *port.ResponsePort
	rq    *port.RespQueue
	chans []*dramChannel

	// pendingReads[prHead:] tracks issued reads whose data has not returned
	// yet, in issue order. Each entry owns its completion event, so in-flight
	// reads are explicit state (checkpointable) rather than anonymous closures
	// on the event queue; every entry's event is pending until it fires.
	// Reads retire oldest first or nearly so, so a retired entry is closed
	// over from the front (see readDone) and the consumed prefix is
	// reclaimed when the array would otherwise grow.
	pendingReads []*dramPendingRead
	prHead       int

	// writeHi and writeLo are the write-drain watermarks in queue entries.
	writeHi, writeLo int

	// reqs and trackers recycle the per-access bookkeeping records. A
	// tracker carries its completion event inline, a copy of readDoneEv
	// made the first time the slab slot is used and kept across reuses, so
	// steady-state reads schedule zero allocations.
	reqs       sim.Freelist[dramRequest]
	trackers   sim.Freelist[dramPendingRead]
	readDoneEv sim.Event

	// trace is the Mem debug-flag logger (nil = off; see AttachTracer).
	trace *obs.Logger

	// ownReadDone and ownIssue are self-profiler attribution owners for the
	// controller's completion and channel-issue events.
	ownReadDone sim.OwnerID
	ownIssue    sim.OwnerID

	stats DRAMStats
}

// dramPendingRead is one issued-but-uncompleted read access.
type dramPendingRead struct {
	pkt     *port.Packet
	arrived sim.Tick
	ev      sim.Event
}

// DRAMStats aggregates controller activity.
type DRAMStats struct {
	Reads       uint64
	Writes      uint64
	RowHits     uint64
	RowMisses   uint64
	BytesRead   uint64
	BytesWrit   uint64
	RetriesSent uint64
	TotalRdLat  sim.Tick
	RetiredRds  uint64
}

// AvgReadLatency returns the mean read latency in ticks.
func (s *DRAMStats) AvgReadLatency() float64 {
	if s.RetiredRds == 0 {
		return 0
	}
	return float64(s.TotalRdLat) / float64(s.RetiredRds)
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (s *DRAMStats) RowHitRate() float64 {
	tot := s.RowHits + s.RowMisses
	if tot == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(tot)
}

type dramRequest struct {
	pkt     *port.Packet
	bank    int
	row     uint64
	arrived sim.Tick
	// isRead is latched at enqueue: a posted write's packet is mutated into
	// its response while the queue entry still models the bank/bus cost, so
	// the entry must not consult pkt.Cmd.
	isRead bool
}

type dramBank struct {
	openRow int64 // -1 = precharged
	readyAt sim.Tick
}

type dramChannel struct {
	ctrl      *DRAMCtrl
	id        int
	banks     []dramBank
	readQ     []*dramRequest
	writeQ    []*dramRequest
	busFreeAt sim.Tick
	draining  bool
	issueEv   *sim.Event
}

// NewDRAMCtrl builds a controller on the given event queue.
func NewDRAMCtrl(cfg DRAMConfig, q *sim.EventQueue) *DRAMCtrl {
	d := &DRAMCtrl{cfg: cfg, q: q}
	d.ownReadDone = q.Owner(cfg.Name, "readDone")
	d.readDoneEv = *sim.NewEvent(cfg.Name+".readDone", d.readDone).SetOwner(d.ownReadDone)
	d.ownIssue = q.Owner(cfg.Name, "issue")
	d.writeHi = int(float64(cfg.WriteQueueDepth) * cfg.WriteHighWatermark)
	d.writeLo = int(float64(cfg.WriteQueueDepth) * cfg.WriteLowWatermark)
	d.prt = port.NewResponsePort(cfg.Name, d)
	d.prt.DeclareAdmissionClasses(2*cfg.Channels, d.admissionClass)
	d.rq = port.NewRespQueue(cfg.Name, q, d.prt)
	for i := 0; i < cfg.Channels; i++ {
		ch := &dramChannel{ctrl: d, id: i, banks: make([]dramBank, cfg.BanksPerChannel)}
		for b := range ch.banks {
			ch.banks[b].openRow = -1
		}
		ch.issueEv = sim.NewEvent(cfg.Name+".issue", ch.issue).SetOwner(d.ownIssue)
		d.chans = append(d.chans, ch)
	}
	return d
}

// Port returns the controller's response port.
func (d *DRAMCtrl) Port() *port.ResponsePort { return d.prt }

// Stats returns a snapshot of the counters.
func (d *DRAMCtrl) Stats() DRAMStats { return d.stats }

// Config returns the controller configuration.
func (d *DRAMCtrl) Config() DRAMConfig { return d.cfg }

// route computes (channel, bank, row) for an address.
func (d *DRAMCtrl) route(addr uint64) (int, int, uint64) {
	bank, row := d.bankRow(addr)
	return d.channelOf(addr), bank, row
}

// channelOf is the channel part of route: all a request needs to learn
// whether the controller has room for it.
func (d *DRAMCtrl) channelOf(addr uint64) int {
	return int(addr>>6) % d.cfg.Channels
}

// bankRow is the rest of route, the request's place within its channel. The
// bank index XOR-folds the row bits so large power-of-two strides (e.g. two
// DMA streams placed 16 MiB apart) do not alias onto the same banks and
// thrash rows.
func (d *DRAMCtrl) bankRow(addr uint64) (int, uint64) {
	chanBlock := (addr >> 6) / uint64(d.cfg.Channels)
	colsPerRow := uint64(d.cfg.RowBufferBytes / 64)
	rowIdx := chanBlock / colsPerRow
	return foldBank(rowIdx, d.cfg.BanksPerChannel), rowIdx / uint64(d.cfg.BanksPerChannel)
}

// foldBank XOR-folds rowIdx in bank-width chunks.
func foldBank(rowIdx uint64, banks int) int {
	width := uint(0)
	for 1<<width < banks {
		width++
	}
	var acc uint64
	for r := rowIdx; r != 0; r >>= width {
		acc ^= r
	}
	return int(acc % uint64(banks))
}

// admissionClass names the queue a request would occupy — channel × read or
// write — which is all RecvTimingReq's refusal depends on: the controller's
// declaration to port.ResponsePort.DeclareAdmissionClasses. A queue only
// shrinks in the issue event, so between two of those a full queue stays full,
// and a refusal returns before anything is touched.
func (d *DRAMCtrl) admissionClass(pkt *port.Packet) int {
	c := 2 * d.channelOf(pkt.Addr)
	if pkt.Cmd.IsWrite() {
		c++
	}
	return c
}

// RecvTimingReq implements port.Responder with queue-full back-pressure. A
// refusal is decided from the channel's queue depth before anything is
// built — the admission promise (admissionClass) rests on that, and a
// requester that does not use the promise re-offers everything it holds on
// every freed slot, so a refusal must cost neither a routing computation nor
// a request record.
func (d *DRAMCtrl) RecvTimingReq(pkt *port.Packet) bool {
	chIdx := d.channelOf(pkt.Addr)
	ch := d.chans[chIdx]
	isWrite := pkt.Cmd.IsWrite()
	if isWrite {
		if len(ch.writeQ) >= d.cfg.WriteQueueDepth {
			return false
		}
	} else if len(ch.readQ) >= d.cfg.ReadQueueDepth {
		return false
	}
	bank, row := d.bankRow(pkt.Addr)
	req := d.reqs.Get()
	*req = dramRequest{pkt: pkt, bank: bank, row: row, arrived: d.q.Now(), isRead: pkt.Cmd.IsRead()}
	if d.trace.On() {
		d.trace.Logf("%s addr=%#x ch=%d bank=%d row=%#x", pkt.Cmd, pkt.Addr, chIdx, bank, row)
	}
	if isWrite {
		ch.writeQ = append(ch.writeQ, req)
		d.stats.Writes++
		d.stats.BytesWrit += uint64(pkt.Size)
		// Posted write: ack after the frontend pipeline; the queued entry
		// models the bandwidth/bank cost. The entry keeps the packet past
		// its response, so it holds the packet beside the requestor until
		// the write drains (issue).
		if pkt.NeedsResponse() {
			pkt.Retain()
			pkt.MakeResponse()
			d.rq.Schedule(pkt, d.q.Now()+d.cfg.FrontendLatency)
		}
	} else {
		ch.readQ = append(ch.readQ, req)
		d.stats.Reads++
		d.stats.BytesRead += uint64(pkt.Size)
	}
	ch.kick()
	return true
}

// RecvRespRetry implements port.Responder.
func (d *DRAMCtrl) RecvRespRetry() { d.rq.RecvRespRetry() }

// kick arms the issue event if idle.
func (ch *dramChannel) kick() {
	if ch.issueEv.Scheduled() {
		return
	}
	if len(ch.readQ) == 0 && len(ch.writeQ) == 0 {
		return
	}
	ch.ctrl.q.Schedule(ch.issueEv, ch.ctrl.q.Now())
}

// issue schedules one DRAM access (FR-FCFS with read priority and write
// drain hysteresis), then re-arms for the time the data bus frees.
func (ch *dramChannel) issue() {
	d := ch.ctrl
	cfg := &d.cfg
	now := d.q.Now()

	// Decide read vs write service.
	if ch.draining && len(ch.writeQ) <= d.writeLo {
		ch.draining = false
	}
	if !ch.draining && len(ch.writeQ) >= d.writeHi {
		ch.draining = true
	}
	var queue *[]*dramRequest
	switch {
	case ch.draining && len(ch.writeQ) > 0:
		queue = &ch.writeQ
	case len(ch.readQ) > 0:
		queue = &ch.readQ
	case len(ch.writeQ) > 0:
		queue = &ch.writeQ
	default:
		return
	}

	// FR-FCFS: the oldest request hitting an open (or scheduled-open) row,
	// else the oldest request. Not gating on bank readiness lets the
	// scheduler batch same-row requests before switching rows, which is
	// what keeps interleaved DMA streams from thrashing row buffers.
	sel := 0
	for i, r := range *queue {
		b := &ch.banks[r.bank]
		if b.openRow == int64(r.row) {
			sel = i
			break
		}
	}
	req := (*queue)[sel]
	*queue = append((*queue)[:sel], (*queue)[sel+1:]...)

	bank := &ch.banks[req.bank]
	// tCL is pipeline latency on the response path; it does not occupy the
	// bank or bus, so back-to-back row hits stream at tBURST intervals
	// (channel peak bandwidth), while row misses serialise tRP+tRCD on the
	// bank.
	var prep sim.Tick
	if bank.openRow == int64(req.row) {
		d.stats.RowHits++
	} else {
		d.stats.RowMisses++
		if bank.openRow >= 0 {
			prep += cfg.TRP
		}
		prep += cfg.TRCD
	}
	start := now
	if bank.readyAt > start {
		start = bank.readyAt
	}
	dataStart := start + prep
	if ch.busFreeAt > dataStart {
		dataStart = ch.busFreeAt
	}
	done := dataStart + cfg.TBurst
	ch.busFreeAt = done
	bank.readyAt = done
	bank.openRow = int64(req.row)

	if req.isRead {
		d.scheduleReadDone(req.pkt, req.arrived, done+cfg.TCL+cfg.BackendLatency)
	} else {
		// The write drains: the queue lets go of the packet — the last
		// holder of a writeback, and of a posted write whose requestor has
		// had its response.
		req.pkt.Release()
	}
	req.pkt = nil
	d.reqs.Put(req)
	// A queue slot freed: let a refused sender retry. The retry may re-enter
	// RecvTimingReq and kick(), scheduling issueEv — the re-arm below must
	// therefore tolerate an already-scheduled event.
	d.stats.RetriesSent++
	d.prt.SendRetryReq()

	if len(ch.readQ) > 0 || len(ch.writeQ) > 0 {
		// Commands issue at command-bus rate so bank activates overlap
		// (bank-level parallelism); the data bus remains the serialisation
		// point. Keep only a small runway of scheduled bursts so queue
		// occupancy — and the back-pressure derived from it — stays real.
		const tCK = sim.Tick(1000) // ~1 ns command cycle
		when := now + tCK
		// Unsigned guard: only push the next command out when the scheduled
		// burst runway is longer than half the bank count.
		if ahead := sim.Tick(d.cfg.BanksPerChannel/2) * cfg.TBurst; ch.busFreeAt > ahead {
			if runway := ch.busFreeAt - ahead; runway > when {
				when = runway
			}
		}
		if ch.issueEv.Scheduled() {
			if ch.issueEv.When() > when {
				d.q.Reschedule(ch.issueEv, when)
			}
		} else {
			d.q.Schedule(ch.issueEv, when)
		}
	}
}

// tracker returns a recycled (or new) tracker for an issued read, with its
// completion event unscheduled.
func (d *DRAMCtrl) tracker(pkt *port.Packet, arrived sim.Tick) *dramPendingRead {
	pr := d.trackers.Get()
	if pr.ev.Name() == "" {
		pr.ev = d.readDoneEv
	}
	pr.pkt, pr.arrived = pkt, arrived
	return pr
}

// scheduleReadDone registers an issued read and arms its completion event.
func (d *DRAMCtrl) scheduleReadDone(pkt *port.Packet, arrived sim.Tick, when sim.Tick) {
	pr := d.tracker(pkt, arrived)
	if d.prHead > 0 && len(d.pendingReads) == cap(d.pendingReads) {
		n := copy(d.pendingReads, d.pendingReads[d.prHead:])
		clear(d.pendingReads[n:])
		d.pendingReads = d.pendingReads[:n]
		d.prHead = 0
	}
	d.pendingReads = append(d.pendingReads, pr)
	d.q.Schedule(&pr.ev, when)
}

// inflightReads returns the tracked reads in issue order.
func (d *DRAMCtrl) inflightReads() []*dramPendingRead { return d.pendingReads[d.prHead:] }

// readDone retires the tracked read whose completion event is being
// dispatched — the one entry whose event is no longer pending: it turns the
// packet into its response and hands it to the response queue.
func (d *DRAMCtrl) readDone() {
	// Close the gap from the front: the retiring read is the oldest or (with
	// several channels completing out of issue order) a few entries behind it,
	// so this moves nothing or next to nothing and keeps issue order.
	i := d.prHead
	for d.pendingReads[i].ev.Scheduled() {
		i++
	}
	pr := d.pendingReads[i]
	copy(d.pendingReads[d.prHead+1:i+1], d.pendingReads[d.prHead:i])
	d.pendingReads[d.prHead] = nil
	d.prHead++
	if d.prHead == len(d.pendingReads) {
		d.pendingReads = d.pendingReads[:0]
		d.prHead = 0
	}
	pkt := pr.pkt
	pkt.MakeResponse()
	d.stats.TotalRdLat += d.q.Now() - pr.arrived
	d.stats.RetiredRds++
	if d.trace.On() {
		d.trace.Logf("read done addr=%#x latency=%d", pkt.Addr, uint64(d.q.Now()-pr.arrived))
	}
	d.rq.Schedule(pkt, d.q.Now())
	// The tracker (with its event) is reusable the moment the response
	// leaves; the packet itself lives on in the response queue.
	pr.pkt = nil
	d.trackers.Put(pr)
}

// AnsweredWrites reports the queued posted writes whose requestors already
// have their responses: the packets the write queues alone still hold (for
// tests).
func (d *DRAMCtrl) AnsweredWrites() int {
	n := 0
	for _, ch := range d.chans {
		for _, req := range ch.writeQ {
			if req.pkt.Cmd == port.WriteResp && req.pkt.SenderStateDepth() == 0 {
				n++
			}
		}
	}
	return n
}

// QueueOccupancy reports total queued reads and writes across channels
// (for tests and stats dumps).
func (d *DRAMCtrl) QueueOccupancy() (reads, writes int) {
	for _, ch := range d.chans {
		reads += len(ch.readQ)
		writes += len(ch.writeQ)
	}
	return
}
