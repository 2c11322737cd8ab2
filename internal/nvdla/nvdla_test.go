package nvdla

import (
	"testing"

	"gem5rtl/internal/mem"
	"gem5rtl/internal/port"
	"gem5rtl/internal/rtlobject"
	"gem5rtl/internal/sim"
)

// dlaRig wires one NVDLA wrapper through an RTLObject to ideal memory on
// both the DBBIF and SRAMIF ports.
type dlaRig struct {
	q   *sim.EventQueue
	dla *Wrapper
	obj *rtlobject.RTLObject
}

func newDLARig(t testing.TB, maxInflight int, latency sim.Tick) *dlaRig {
	t.Helper()
	r := &dlaRig{q: sim.NewEventQueue()}
	core := sim.NewClockDomain("cpu", r.q, 2_000_000_000)
	r.dla = New(DefaultConfig("nvdla0"))
	r.obj = rtlobject.New(rtlobject.Config{
		Name: "nvdla0", ClockDivider: 2, MaxInflight: maxInflight,
	}, core, mem.NewStorage(), r.dla)
	m0 := mem.NewIdealMemory("dbbif", r.q, latency)
	m1 := mem.NewIdealMemory("sramif", r.q, latency)
	port.Bind(r.obj.MemPort(PortDBBIF), m0.Port())
	port.Bind(r.obj.MemPort(PortSRAMIF), m1.Port())
	return r
}

// program commits a small layer and starts it.
func program(dla *Wrapper, inBytes, wtBytes, outBytes, tile, cycles uint32) {
	dla.WriteReg(RegInAddrLo, 0)
	dla.WriteReg(RegInAddrHi, 0)
	dla.WriteReg(RegWtAddrLo, 0)
	dla.WriteReg(RegWtAddrHi, 1) // 4 GiB apart
	dla.WriteReg(RegOutAddrLo, 0)
	dla.WriteReg(RegOutAddrHi, 2)
	dla.WriteReg(RegInBytes, inBytes)
	dla.WriteReg(RegWtBytes, wtBytes)
	dla.WriteReg(RegOutBytes, outBytes)
	dla.WriteReg(RegTileBytes, tile)
	dla.WriteReg(RegCyclesPerTile, cycles)
	dla.WriteReg(RegLayerCommit, 1)
	dla.WriteReg(RegCtrl, 1)
}

func TestLayerRunsToCompletion(t *testing.T) {
	r := newDLARig(t, 64, 10*sim.Nanosecond)
	irqAt := sim.Tick(0)
	r.obj.OnInterrupt(func(level bool) {
		if level && irqAt == 0 {
			irqAt = r.q.Now()
		}
	})
	r.obj.Start() // resets the wrapper, so program after
	program(r.dla, 16384, 8192, 4096, 4096, 100)
	r.q.RunUntil(sim.Millisecond)
	r.obj.Stop()
	if !r.dla.Done() {
		t.Fatalf("accelerator not done: stats %+v", r.dla.Stats())
	}
	if irqAt == 0 {
		t.Fatal("no completion interrupt")
	}
	st := r.dla.Stats()
	if st.BytesRead != 16384+8192 {
		t.Fatalf("read %d bytes, want %d", st.BytesRead, 16384+8192)
	}
	if st.BytesWritten != 4096 {
		t.Fatalf("wrote %d bytes", st.BytesWritten)
	}
	// 6 tiles x 100 cycles of compute.
	if st.TilesDone != 6 || st.BusyCycles != 600 {
		t.Fatalf("tiles=%d busy=%d", st.TilesDone, st.BusyCycles)
	}
	if st.LayersDone != 1 {
		t.Fatalf("layers=%d", st.LayersDone)
	}
}

func TestStatusRegister(t *testing.T) {
	r := newDLARig(t, 64, 10*sim.Nanosecond)
	if r.dla.ReadReg(RegStatus) != 0 {
		t.Fatal("status not idle initially")
	}
	r.obj.Start()
	program(r.dla, 4096, 4096, 0, 2048, 50)
	if r.dla.ReadReg(RegStatus)&2 == 0 {
		t.Fatal("running bit not set after start")
	}
	r.q.RunUntil(sim.Millisecond)
	if r.dla.ReadReg(RegStatus)&1 == 0 {
		t.Fatal("done bit not set")
	}
	if r.dla.ReadReg(RegPerfCycles) == 0 {
		t.Fatal("perf cycle counter empty")
	}
	r.dla.WriteReg(RegIrqClear, 1)
	out := r.dla.Tick(&rtlobject.Input{})
	if out.Interrupt {
		t.Fatal("interrupt not cleared")
	}
}

func TestFewerInflightIsSlower(t *testing.T) {
	run := func(maxInflight int) sim.Tick {
		r := newDLARig(t, maxInflight, 40*sim.Nanosecond)
		var doneAt sim.Tick
		r.obj.OnInterrupt(func(level bool) {
			if level && doneAt == 0 {
				doneAt = r.q.Now()
				r.q.ExitSimLoop("dla done")
			}
		})
		r.obj.Start()
		// Memory-bound layer: no compute at all.
		program(r.dla, 1<<17, 1<<16, 0, 8192, 1)
		r.q.RunUntil(100 * sim.Millisecond)
		r.obj.Stop()
		if doneAt == 0 {
			t.Fatalf("inflight=%d never finished", maxInflight)
		}
		return doneAt
	}
	t1 := run(1)
	t64 := run(64)
	if t64*4 > t1 {
		t.Fatalf("64 in-flight (%d) not at least 4x faster than 1 (%d)", t64, t1)
	}
}

func TestComputeBoundInsensitiveToLatency(t *testing.T) {
	run := func(latency sim.Tick) sim.Tick {
		r := newDLARig(t, 128, latency)
		var doneAt sim.Tick
		r.obj.OnInterrupt(func(level bool) {
			if level && doneAt == 0 {
				doneAt = r.q.Now()
				r.q.ExitSimLoop("dla done")
			}
		})
		r.obj.Start()
		// Compute-heavy: 4000 cycles per 8 KiB tile.
		program(r.dla, 1<<15, 1<<14, 0, 8192, 4000)
		r.q.RunUntil(100 * sim.Millisecond)
		r.obj.Stop()
		if doneAt == 0 {
			t.Fatal("never finished")
		}
		return doneAt
	}
	fast := run(5 * sim.Nanosecond)
	slow := run(60 * sim.Nanosecond)
	ratio := float64(slow) / float64(fast)
	if ratio > 1.15 {
		t.Fatalf("compute-bound run slowed %.2fx by memory latency", ratio)
	}
}

func TestCSBViaPortPackets(t *testing.T) {
	r := newDLARig(t, 16, 10*sim.Nanosecond)
	// Program through the CPU-side port like a host core would.
	drv := &csbDriver{q: r.q}
	drv.p = port.NewRequestPort("host", drv)
	port.Bind(drv.p, r.obj.CPUPort(0))
	r.obj.Start()
	writes := []struct {
		addr uint64
		val  uint32
	}{
		{RegInBytes, 4096}, {RegWtBytes, 4096}, {RegOutBytes, 0},
		{RegTileBytes, 2048}, {RegCyclesPerTile, 10},
		{RegLayerCommit, 1}, {RegCtrl, 1},
	}
	for _, wr := range writes {
		pkt := port.NewWritePacket(wr.addr, []byte{
			byte(wr.val), byte(wr.val >> 8), byte(wr.val >> 16), byte(wr.val >> 24)})
		if !drv.p.SendTimingReq(pkt) {
			t.Fatal("CSB write refused")
		}
	}
	r.q.RunUntil(sim.Millisecond)
	if !r.dla.Done() {
		t.Fatal("CSB-programmed run did not finish")
	}
	// Read status through the port.
	rd := port.NewReadPacket(RegStatus, 4)
	drv.p.SendTimingReq(rd)
	r.q.RunUntil(r.q.Now() + 10*sim.Microsecond)
	if len(drv.resps) == 0 || drv.resps[len(drv.resps)-1].Data[0]&1 == 0 {
		t.Fatal("status read via port did not show done")
	}
}

type csbDriver struct {
	q     *sim.EventQueue
	p     *port.RequestPort
	resps []*port.Packet
}

func (d *csbDriver) RecvTimingResp(pkt *port.Packet) bool {
	d.resps = append(d.resps, pkt)
	return true
}
func (d *csbDriver) RecvReqRetry() {}

func TestMultiLayer(t *testing.T) {
	r := newDLARig(t, 64, 10*sim.Nanosecond)
	r.obj.Start()
	for i := 0; i < 3; i++ {
		r.dla.WriteReg(RegInBytes, 8192)
		r.dla.WriteReg(RegWtBytes, 4096)
		r.dla.WriteReg(RegOutBytes, 2048)
		r.dla.WriteReg(RegTileBytes, 4096)
		r.dla.WriteReg(RegCyclesPerTile, 20)
		r.dla.WriteReg(RegLayerCommit, 1)
	}
	r.dla.WriteReg(RegCtrl, 1)
	r.q.RunUntil(10 * sim.Millisecond)
	if st := r.dla.Stats(); st.LayersDone != 3 {
		t.Fatalf("layers done = %d, want 3", st.LayersDone)
	}
}

func TestResetClears(t *testing.T) {
	r := newDLARig(t, 64, 10*sim.Nanosecond)
	r.obj.Start()
	program(r.dla, 4096, 4096, 0, 2048, 10)
	r.q.RunUntil(sim.Millisecond)
	r.obj.Stop()
	r.dla.Reset()
	if r.dla.Done() || r.dla.ReadReg(RegStatus) != 0 || r.dla.ReadReg(RegPerfCycles) != 0 {
		t.Fatal("reset did not clear state")
	}
}

func BenchmarkDLATick(b *testing.B) {
	dla := New(DefaultConfig("bench"))
	program(dla, 1<<30, 1<<28, 0, 8192, 100)
	in := &rtlobject.Input{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := dla.Tick(in)
		// Feed responses back immediately (zero-latency memory).
		in = &rtlobject.Input{}
		for _, req := range out.MemRequests {
			if !req.Write {
				in.MemResponses = append(in.MemResponses,
					rtlobject.MemResponse{ID: req.ID, Data: make([]byte, req.Size)})
			} else {
				in.MemResponses = append(in.MemResponses,
					rtlobject.MemResponse{ID: req.ID, Write: true})
			}
		}
	}
}
