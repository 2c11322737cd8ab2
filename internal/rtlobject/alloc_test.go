package rtlobject

import (
	"testing"

	"gem5rtl/internal/mem"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

// streamWrapper issues one 64-byte read per tick from a reused Output and
// checks every payload it is handed during the call, keeping none.
type streamWrapper struct {
	out     Output
	req     [1]MemRequest
	next    uint64
	retired int
	bad     int
}

func (w *streamWrapper) Name() string { return "stream" }
func (w *streamWrapper) Reset()       {}

func (w *streamWrapper) Tick(in *Input) *Output {
	for i := range in.MemResponses {
		resp := &in.MemResponses[i]
		// Block b of the store holds b in every byte; request ID n reads
		// block n%64.
		if len(resp.Data) != 64 || resp.Data[0] != byte(resp.ID%64) || resp.Data[63] != byte(resp.ID%64) {
			w.bad++
		}
		w.retired++
	}
	w.next++
	w.req[0] = MemRequest{ID: w.next, Addr: (w.next % 64) * 64, Size: 64}
	w.out.MemRequests = w.req[:]
	return &w.out
}

// TestReadRoundTripAllocs pins the DMA exchange: once the pools are warm, a
// read request and its response — packet, transaction record, sender state,
// payload read from the store, delivery to the wrapper — allocate nothing, and
// the payloads handed to the wrapper are the right bytes even though they
// share one buffer.
func TestReadRoundTripAllocs(t *testing.T) {
	q := sim.NewEventQueue()
	core := sim.NewClockDomain("cpu", q, 2_000_000_000)
	w := &streamWrapper{}
	store := mem.NewStorage()
	r := New(Config{Name: "dev", MaxInflight: 64}, core, store, w)
	for b := 0; b < 64; b++ {
		blk := make([]byte, 64)
		for i := range blk {
			blk[i] = byte(b)
		}
		store.Write(uint64(b)*64, blk)
	}
	ideal := mem.NewIdealMemory("ideal", q, 20*core.Period())
	// Unchecked: the protocol checker keeps a formatted history per handshake.
	port.BindUnchecked(r.MemPort(0), ideal.Port())
	r.Start()

	run := func() { q.RunUntil(q.Now() + 200*core.Period()) }
	run() // warm the packet pool, transaction records, queues and payload buffer
	before := w.retired
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("read round trips allocate %.1f objects per 200 ticks, want 0", allocs)
	}
	if n := w.retired - before; n < 20*200 {
		t.Fatalf("only %d reads retired while measuring", n)
	}
	if w.bad != 0 {
		t.Fatalf("%d of %d responses carried the wrong payload", w.bad, w.retired)
	}
	if r.InflightCount() == 0 {
		t.Fatal("nothing in flight: the run did not overlap requests and responses")
	}
}
