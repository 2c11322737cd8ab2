package noc

import (
	"testing"

	"gem5rtl/internal/mem"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

// releaser is a pooled requestor: it takes every response and releases it.
type releaser struct{ got int }

func (r *releaser) RecvTimingResp(pkt *port.Packet) bool {
	r.got++
	pkt.Release()
	return true
}

func (r *releaser) RecvReqRetry() {}

// TestForwardingSteadyStateAllocs pins the crossbar's share of a run that
// allocates only at set-up: once warm, forwarding a batch of pooled reads and
// posted writes from two fronts to a DRAM controller and routing the
// responses back allocates nothing — the front state a packet carries is
// shared, and it fits the stack the pooled packet brings. The rig binds
// unchecked: a protocol checker records every packet it sees.
func TestForwardingSteadyStateAllocs(t *testing.T) {
	q := sim.NewEventQueue()
	x := New(cfg(), q, 2, 1)
	dram := mem.NewDRAMCtrl(mem.DDR4Config(1), q, mem.NewStorage())
	port.BindUnchecked(x.DownPort(0), dram.Port())
	var pools [2]port.PacketPool
	var reqs [2]*port.RequestPort
	rel := &releaser{}
	for i := range reqs {
		reqs[i] = port.NewRequestPort("front", rel)
		port.BindUnchecked(reqs[i], x.FrontPort(i))
	}
	var addr uint64
	batch := func() {
		for i := 0; i < 16; i++ {
			f := i % 2
			cmd := port.ReadReq
			if i%4 == 3 {
				cmd = port.WriteReq
			}
			pkt := pools[f].Get(cmd, addr, 64)
			if cmd == port.WriteReq {
				pkt.AllocateData()
			}
			// The issuing component's own sender state, as an RTLObject or a
			// core pushes one, so the crossbar's is the stack's second.
			pkt.PushSenderState(uint64(i))
			addr = (addr + 64) % (1 << 20)
			if !reqs[f].SendTimingReq(pkt) {
				t.Fatal("refused")
			}
		}
		q.Run()
	}
	batch()
	if allocs := testing.AllocsPerRun(100, batch); allocs != 0 {
		t.Errorf("%.1f allocations per batch, want 0", allocs)
	}
	if rel.got != 102*16 {
		t.Errorf("%d responses, want %d", rel.got, 102*16)
	}
}
