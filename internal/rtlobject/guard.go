package rtlobject

import (
	"fmt"
	"sort"
	"strings"
)

// The liveness-probe methods below implement guard.Probe (structurally): the
// watchdog waits on the transaction tables bridging the RTL model to the
// memory system. Forward progress must be measured with Progress (retired
// transactions), never with Stats().Ticks: a wedged model is still clocked,
// whether its ticks are dispatched or, for a Sleeper, credited. What the
// watchdog can no longer rely on is that clock keeping the queue busy — a
// Sleeper wedged on a lost response schedules nothing, the queue drains
// before the watchdog's next poll, and the trip reads "event queue drained
// with in-flight work" where a per-cycle wrapper's reads "no forward
// progress". Without a watchdog the run ends at its limit with accelerators
// still running, as it always did (TestLostResponseEndsAtLimit in soc).

// GuardName identifies the RTLObject in watchdog diagnostics.
func (r *RTLObject) GuardName() string { return r.cfg.Name }

// InFlight reports outstanding memory transactions, queued requests, and
// unanswered CPU-side packets.
func (r *RTLObject) InFlight() int {
	n := len(r.inflight) + len(r.sendQ) + len(r.cpuPkts)
	for _, rq := range r.respQs {
		n += rq.Len()
	}
	return n
}

// GuardDetail renders the transaction tables with model-side request IDs. It
// settles a sleeping object first: a hang report goes on to print the wrapped
// model's own detail, which must be the per-cycle machine's.
func (r *RTLObject) GuardDetail() string {
	r.Settle()
	ids := make([]uint64, 0, len(r.inflight))
	for _, txn := range r.inflight {
		ids = append(ids, txn.req.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	const maxIDs = 8
	strs := make([]string, 0, len(ids))
	for i, id := range ids {
		if i == maxIDs {
			strs = append(strs, fmt.Sprintf("+%d more", len(ids)-maxIDs))
			break
		}
		strs = append(strs, fmt.Sprintf("%d", id))
	}
	return fmt.Sprintf("mem-inflight=[%s] sendQ=%d cpuPkts=%d",
		strings.Join(strs, " "), len(r.sendQ), len(r.cpuPkts))
}

// Progress is the watchdog forward-progress counter: retired memory
// transactions, serviced CPU requests and raised interrupts.
func (r *RTLObject) Progress() uint64 {
	return r.stats.RetiredMem + r.stats.CPURequests + r.stats.Interrupts
}
