package mem

import (
	"bytes"
	"strings"
	"testing"

	"gem5rtl/internal/conform"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

type memSink struct{}

func (memSink) RecvTimingResp(*port.Packet) bool { return true }
func (memSink) RecvReqRetry()                    {}

func TestStorageRoundTrip(t *testing.T) {
	s := NewStorage()
	s.Write(0x100, []byte{1, 2, 3})
	s.Write(1<<20, []byte{9})
	blob := conform.Save(t, s)

	s2 := NewStorage()
	s2.Write(0x5000, []byte{0xff}) // pre-existing contents must be replaced
	conform.Restore(t, blob, s2)
	if !bytes.Equal(conform.Save(t, s2), blob) {
		t.Error("re-saved storage differs")
	}
	got := make([]byte, 3)
	s2.Read(0x100, got)
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("restored data = %v", got)
	}
	one := make([]byte, 1)
	s2.Read(0x5000, one)
	if one[0] != 0 {
		t.Error("stale page survived restore")
	}
}

func TestIdealAndScratchpadRoundTrip(t *testing.T) {
	q := sim.NewEventQueue()
	im := NewIdealMemory("im", q, 500)
	port.BindUnchecked(port.NewRequestPort("r", memSink{}), im.Port())
	im.RecvTimingReq(port.NewReadPacket(0x40, 64))
	blob := conform.Save(t, im)
	q2 := sim.NewEventQueue()
	im2 := NewIdealMemory("im", q2, 500)
	port.BindUnchecked(port.NewRequestPort("r", memSink{}), im2.Port())
	conform.Restore(t, blob, im2)
	if !bytes.Equal(conform.Save(t, im2), blob) {
		t.Error("re-saved ideal memory differs")
	}
	if im2.Reads != 1 {
		t.Errorf("Reads = %d", im2.Reads)
	}

	sp := NewScratchpad(DefaultScratchpadConfig("sp"), q)
	port.BindUnchecked(port.NewRequestPort("r", memSink{}), sp.Port())
	sp.RecvTimingReq(port.NewPacket(port.WriteReq, 0x80, 64))
	blob = conform.Save(t, sp)
	sp2 := NewScratchpad(DefaultScratchpadConfig("sp"), sim.NewEventQueue())
	port.BindUnchecked(port.NewRequestPort("r", memSink{}), sp2.Port())
	conform.Restore(t, blob, sp2)
	if !bytes.Equal(conform.Save(t, sp2), blob) {
		t.Error("re-saved scratchpad differs")
	}
	if sp2.busFreeAt != sp.busFreeAt || sp2.Bytes != 64 {
		t.Errorf("scratchpad state lost: busFreeAt=%d Bytes=%d", sp2.busFreeAt, sp2.Bytes)
	}
}

// buildDRAM wires a DDR4-1ch controller to a stub requestor.
func buildDRAM(q *sim.EventQueue) *DRAMCtrl {
	cfg, _ := ConfigByName("DDR4-1ch")
	d := NewDRAMCtrl(cfg, q)
	port.BindUnchecked(port.NewRequestPort("r", memSink{}), d.Port())
	return d
}

// TestDRAMRoundTrip checkpoints a controller mid-burst — queued reads and
// writes, in-flight read completions, open rows — and verifies the restored
// instance re-serialises identically and finishes the outstanding work.
func TestDRAMRoundTrip(t *testing.T) {
	q := sim.NewEventQueue()
	d := buildDRAM(q)
	for i := 0; i < 8; i++ {
		if !d.RecvTimingReq(port.NewReadPacket(uint64(i)*4096, 64)) {
			t.Fatal("read refused")
		}
	}
	if !d.RecvTimingReq(port.NewPacket(port.WriteReq, 0x100000, 64)) {
		t.Fatal("write refused")
	}
	// Run a little so some reads are issued (tracked in pendingReads) while
	// others still queue.
	q.RunUntil(20_000)
	if len(d.pendingReads) == 0 {
		t.Fatal("test did not reach an in-flight read state")
	}

	blob := conform.Save(t, d)
	q2 := sim.NewEventQueue()
	d2 := buildDRAM(q2)
	// Restores validate event times against the restored clock.
	conform.Restore(t, conform.Save(t, q), q2)
	conform.Restore(t, blob, d2)
	if !bytes.Equal(conform.Save(t, d2), blob) {
		t.Error("re-saved DRAM state differs")
	}

	// Both instances must retire the same work at the same ticks.
	q.RunUntil(5_000_000)
	q2.RunUntil(5_000_000)
	if d.stats != d2.stats {
		t.Errorf("post-run stats diverge:\n got %+v\nwant %+v", d2.stats, d.stats)
	}
	if r, wr := d2.QueueOccupancy(); r != 0 || wr != 0 {
		t.Errorf("restored controller left work queued: %d/%d", r, wr)
	}
}

// requireRefusal fails t unless err is a refusal whose message holds want.
func requireRefusal(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("restore error = %v, want one naming %q", err, want)
	}
}

// TestStoragePageSizeRefused: a store takes back only pages of its own size.
func TestStoragePageSizeRefused(t *testing.T) {
	s := NewStorage()
	s.Write(0x100, []byte{1})
	blob := conform.Save(t, s)
	// The page-size exponent is the section's first field.
	head := []byte("mem.storage")
	bad := conform.Patch(t, blob, append(head, conform.Words(uint64(s.pageBits))...),
		append(head, conform.Words(uint64(s.pageBits+1))...))
	requireRefusal(t, conform.Load(bad, NewStorage()), "page size")
}

// TestDRAMShapeRefused: a controller takes back only the channels and banks
// per channel it was built with.
func TestDRAMShapeRefused(t *testing.T) {
	d := buildDRAM(sim.NewEventQueue())
	blob := conform.Save(t, d)
	nc, nb := uint64(len(d.chans)), uint64(len(d.chans[0].banks))
	// An idle controller tracks no read: that count (0) precedes the channel
	// count and the first channel's bank count.
	shape := conform.Words(0, nc, nb)
	for _, c := range []struct {
		words []byte
		want  string
	}{
		{conform.Words(0, nc+1, nb), "channels"},
		{conform.Words(0, nc, nb+1), "banks/channel"},
	} {
		bad := conform.Patch(t, blob, shape, c.words)
		requireRefusal(t, conform.Load(bad, buildDRAM(sim.NewEventQueue())), c.want)
	}
}

// TestDRAMTrackedReadNeedsItsCompletion: a tracked read retires when its
// completion event fires, so a checkpoint that tracks one with no completion
// pending is refused.
func TestDRAMTrackedReadNeedsItsCompletion(t *testing.T) {
	q := sim.NewEventQueue()
	d := buildDRAM(q)
	for i := 0; i < 4; i++ {
		if !d.RecvTimingReq(port.NewReadPacket(uint64(i)*4096, 64)) {
			t.Fatal("read refused")
		}
	}
	q.RunUntil(20_000)
	if len(d.inflightReads()) == 0 {
		t.Fatal("test did not reach an in-flight read state")
	}
	pr := d.inflightReads()[0]
	blob := conform.Save(t, d)
	// A tracked read's record ends with its arrival tick and its completion
	// event: pending (1), then its tick.
	rec := func(pending byte) []byte {
		b := append(conform.Words(uint64(pr.arrived)), pending)
		return append(b, conform.Words(uint64(pr.ev.When()))...)
	}
	bad := conform.Patch(t, blob, rec(1), rec(0))
	q2 := sim.NewEventQueue()
	conform.Restore(t, conform.Save(t, q), q2)
	requireRefusal(t, conform.Load(bad, buildDRAM(q2)), "no completion pending")
}
