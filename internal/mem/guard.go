package mem

import (
	"fmt"
	"strings"
)

// The liveness-probe methods below implement guard.Probe (structurally) for
// the three memory backends.

// GuardName identifies the DRAM controller in watchdog diagnostics.
func (d *DRAMCtrl) GuardName() string { return d.prt.Name() }

// InFlight reports queued plus issued-but-uncompleted accesses.
func (d *DRAMCtrl) InFlight() int {
	r, w := d.QueueOccupancy()
	return r + w + len(d.inflightReads()) + d.rq.Len()
}

// GuardDetail renders queue occupancy and in-flight read packet IDs.
func (d *DRAMCtrl) GuardDetail() string {
	r, w := d.QueueOccupancy()
	reads := d.inflightReads()
	ids := make([]string, 0, len(reads))
	const maxIDs = 8
	for i, pr := range reads {
		if i == maxIDs {
			ids = append(ids, fmt.Sprintf("+%d more", len(reads)-maxIDs))
			break
		}
		ids = append(ids, fmt.Sprintf("%d", pr.pkt.ID))
	}
	return fmt.Sprintf("readQ=%d writeQ=%d respQ=%d inflight-reads=[%s]",
		r, w, d.rq.Len(), strings.Join(ids, " "))
}

// Retired reports completed accesses — the watchdog's forward-progress
// counter for the controller.
func (d *DRAMCtrl) Retired() uint64 { return d.stats.RetiredRds + d.stats.Writes }

// GuardName identifies the ideal memory in watchdog diagnostics.
func (m *IdealMemory) GuardName() string { return m.prt.Name() }

// InFlight reports queued responses.
func (m *IdealMemory) InFlight() int { return m.rq.Len() }

// GuardDetail renders queue occupancy.
func (m *IdealMemory) GuardDetail() string { return fmt.Sprintf("respQ=%d", m.rq.Len()) }

// Retired reports completed accesses.
func (m *IdealMemory) Retired() uint64 { return m.Reads + m.Writes }

// GuardName identifies the scratchpad in watchdog diagnostics.
func (s *Scratchpad) GuardName() string { return s.prt.Name() }

// InFlight reports queued responses.
func (s *Scratchpad) InFlight() int { return s.rq.Len() }

// GuardDetail renders queue occupancy.
func (s *Scratchpad) GuardDetail() string { return fmt.Sprintf("respQ=%d", s.rq.Len()) }

// Retired reports completed accesses.
func (s *Scratchpad) Retired() uint64 { return s.Reads + s.Writes }
