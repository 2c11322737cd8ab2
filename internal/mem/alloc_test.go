package mem

import (
	"testing"

	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

// releaser is a pooled requestor: it takes every response and releases it.
type releaser struct {
	reads, writes int
}

func (r *releaser) RecvTimingResp(pkt *port.Packet) bool {
	if pkt.Cmd == port.WriteResp {
		r.writes++
	} else {
		r.reads++
	}
	pkt.Release()
	return true
}

func (r *releaser) RecvReqRetry() {}

// TestMemorySteadyStateAllocs pins the memory controllers' share of a run
// that allocates only at set-up: once warm, a batch of pooled reads or
// posted writes through a DRAM controller or the ideal memory allocates
// nothing. The posted writes exercise the hand-off: each is held by the
// write queue and the requestor, and returns to its pool on whichever
// release comes last. The rigs bind unchecked: a protocol checker records
// every packet it sees.
func TestMemorySteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write bool
		ideal bool
	}{
		{"dram/reads", false, false},
		{"dram/posted-writes", true, false},
		{"ideal/reads", false, true},
		{"ideal/writes", true, true},
	} {
		q := sim.NewEventQueue()
		var resp *port.ResponsePort
		if tc.ideal {
			resp = NewIdealMemory("ideal", q, NewStorage(), 500).Port()
		} else {
			resp = NewDRAMCtrl(DDR4Config(1), q, NewStorage()).Port()
		}
		rel := &releaser{}
		req := port.NewRequestPort("releaser", rel)
		port.BindUnchecked(req, resp)
		var pool port.PacketPool
		var addr uint64
		batch := func() {
			for i := 0; i < 16; i++ {
				cmd := port.ReadReq
				if tc.write {
					cmd = port.WriteReq
				}
				pkt := pool.Get(cmd, addr, 64)
				if tc.write {
					pkt.AllocateData()
				}
				addr = (addr + 64) % (1 << 20)
				if !req.SendTimingReq(pkt) {
					t.Fatalf("%s: refused", tc.name)
				}
			}
			q.Run()
		}
		batch()
		if allocs := testing.AllocsPerRun(100, batch); allocs != 0 {
			t.Errorf("%s: %.1f allocations per batch, want 0", tc.name, allocs)
		}
		if got := rel.reads + rel.writes; got != 102*16 {
			t.Errorf("%s: %d responses, want %d", tc.name, got, 102*16)
		}
	}
}
