package cpu

import (
	"bytes"
	"sort"
	"testing"

	"gem5rtl/internal/cache"
	"gem5rtl/internal/isa"
	"gem5rtl/internal/mem"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/workload"
)

// rig is a single-core system: core -> L1I/L1D -> ideal memory. With no
// crossbar to join them, L1I and L1D each get an ideal memory; both and the
// core share one Storage, the only place the bytes live.
type rig struct {
	q     *sim.EventQueue
	dom   *sim.ClockDomain
	core  *Core
	l1i   *cache.Cache
	l1d   *cache.Cache
	store *mem.Storage
	out   bytes.Buffer
}

func newRig(t testing.TB) *rig {
	t.Helper()
	r := &rig{q: sim.NewEventQueue()}
	r.dom = sim.NewClockDomain("cpu", r.q, 2_000_000_000)
	r.store = mem.NewStorage()
	r.core = New(DefaultConfig(0), r.dom, r.store)
	r.core.Out = &r.out
	r.l1i = cache.New(cache.Config{Name: "l1i", SizeBytes: 64 << 10, Assoc: 4,
		Latency: 1 * sim.Nanosecond, MSHRs: 8}, r.q)
	r.l1d = cache.New(cache.Config{Name: "l1d", SizeBytes: 64 << 10, Assoc: 4,
		Latency: 1 * sim.Nanosecond, MSHRs: 24}, r.q)
	mi := mem.NewIdealMemory("memI", r.q, r.store, 40*sim.Nanosecond)
	md := mem.NewIdealMemory("memD", r.q, r.store, 40*sim.Nanosecond)
	port.Bind(r.core.IPort(), r.l1i.CPUPort())
	port.Bind(r.core.DPort(), r.l1d.CPUPort())
	port.Bind(r.l1i.MemPort(), mi.Port())
	port.Bind(r.l1d.MemPort(), md.Port())
	return r
}

func (r *rig) run(t testing.TB, src string, limit sim.Tick) int64 {
	t.Helper()
	img, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	r.core.LoadProgram(img)
	r.core.Start()
	r.q.RunUntil(limit)
	exited, code := r.core.Exited()
	if !exited {
		t.Fatalf("program did not exit within %d ticks (pc=%#x)", limit, r.core.PC())
	}
	return code
}

func TestSimpleLoop(t *testing.T) {
	r := newRig(t)
	code := r.run(t, workload.SimpleLoop(100), 10*sim.Millisecond)
	if code != 4950 {
		t.Fatalf("exit code %d, want 4950", code)
	}
	st := r.core.Stats()
	if st.Committed == 0 || st.Cycles == 0 {
		t.Fatal("no stats recorded")
	}
	ipc := st.IPC()
	if ipc <= 0.1 || ipc > 3.0 {
		t.Fatalf("IPC %.2f outside sane range", ipc)
	}
}

func TestMemoryStreamChecksum(t *testing.T) {
	r := newRig(t)
	code := r.run(t, workload.MemoryStream(0x400000, 200), 50*sim.Millisecond)
	if code != 199*200/2 {
		t.Fatalf("checksum %d", code)
	}
	if r.core.Stats().Loads < 200 || r.core.Stats().Stores < 200 {
		t.Fatalf("loads/stores %d/%d", r.core.Stats().Loads, r.core.Stats().Stores)
	}
	if r.l1d.Stats().Misses == 0 {
		t.Fatal("no L1D misses on a 200-element stream")
	}
}

// TestStoreWidthsReachStorage stores all-ones at each width and loads each
// back: Storage must hold exactly the stored bytes, and the loads must
// zero-extend them.
func TestStoreWidthsReachStorage(t *testing.T) {
	r := newRig(t)
	src := `
main:
    li t0, 3145728   ; 0x300000
    li t1, -1
    sd t1, 0(t0)
    sw t1, 16(t0)
    sb t1, 32(t0)
    ld t2, 0(t0)
    lw t3, 16(t0)
    lb t4, 32(t0)
    add a0, t2, t3
    add a0, a0, t4
    li a7, 93
    ecall
`
	if code := r.run(t, src, sim.Millisecond); code != -1+0xFFFFFFFF+0xFF {
		t.Fatalf("exit %d, want %d", code, -1+0xFFFFFFFF+0xFF)
	}
	for _, c := range []struct {
		off  uint64
		ones int
	}{{0, 8}, {16, 4}, {32, 1}} {
		got := make([]byte, 16)
		r.store.Read(0x300000+c.off, got)
		want := make([]byte, 16)
		for i := 0; i < c.ones; i++ {
			want[i] = 0xFF
		}
		if !bytes.Equal(got, want) {
			t.Errorf("Storage at +%d holds % x, want % x", c.off, got, want)
		}
	}
}

func TestSleepAdvancesTime(t *testing.T) {
	r := newRig(t)
	src := `
main:
    li a7, 1000
    li a0, 50      ; 50 us
    ecall
    li a7, 93
    li a0, 7
    ecall
`
	code := r.run(t, src, 10*sim.Millisecond)
	if code != 7 {
		t.Fatalf("exit %d", code)
	}
	if r.q.Now() < 50*sim.Microsecond {
		t.Fatalf("exit at %d, before sleep elapsed", r.q.Now())
	}
	if st := r.core.Stats(); st.SleepCycles == 0 {
		t.Fatal("sleep cycles not recorded")
	}
}

// TestIPCCountsAwakeCycles: IPC is per cycle the core ticked. Cycles leaves
// a sleep out already, so a run that sleeps longer than it works must still
// report an IPC within the issue width, not one of a cycle count that
// wrapped below zero.
func TestIPCCountsAwakeCycles(t *testing.T) {
	r := newRig(t)
	src := `
main:
    li t0, 0
    li t1, 200
loop:
    addi t0, t0, 1
    blt t0, t1, loop
    li a7, 1000
    li a0, 50      ; 50 us
    ecall
    li a7, 93
    li a0, 0
    ecall
`
	r.run(t, src, 10*sim.Millisecond)
	st := r.core.Stats()
	if st.SleepCycles <= st.Cycles {
		t.Fatalf("%d sleep cycles, %d awake: the run must sleep longer than it works", st.SleepCycles, st.Cycles)
	}
	// A tight loop commits far more than an instruction in twenty cycles.
	if ipc, width := st.IPC(), float64(r.core.cfg.IssueWidth); ipc < 0.05 || ipc > width {
		t.Errorf("IPC %g for %d instructions in %d awake cycles, want it in [0.05, %g]", ipc, st.Committed, st.Cycles, width)
	}
}

func TestPrintSyscalls(t *testing.T) {
	r := newRig(t)
	src := `
main:
    li a7, 1001
    li a0, 42
    ecall
    li a7, 1002
    li a0, 10     ; newline
    ecall
    li a7, 93
    li a0, 0
    ecall
`
	r.run(t, src, sim.Millisecond)
	if got := r.out.String(); got != "42\n\n" {
		t.Fatalf("output %q", got)
	}
}

func TestOnCommitTap(t *testing.T) {
	r := newRig(t)
	total := 0
	maxPerCycle := 0
	r.core.OnCommit = func(n int) {
		total += n
		if n > maxPerCycle {
			maxPerCycle = n
		}
	}
	r.run(t, workload.SimpleLoop(50), sim.Millisecond)
	if uint64(total) != r.core.Stats().Committed {
		t.Fatalf("tap total %d != committed %d", total, r.core.Stats().Committed)
	}
	if maxPerCycle == 0 || maxPerCycle > 3 {
		t.Fatalf("max commits/cycle %d outside [1,3]", maxPerCycle)
	}
}

func TestCallRet(t *testing.T) {
	r := newRig(t)
	src := `
main:
    li a0, 5
    call double
    call double
    li a7, 93
    ecall
double:
    add a0, a0, a0
    ret
`
	if code := r.run(t, src, sim.Millisecond); code != 20 {
		t.Fatalf("exit %d, want 20", code)
	}
}

func TestQuickSortProgramSortsMemory(t *testing.T) {
	r := newRig(t)
	p := workload.SortParams{N: 20, SleepUs: 5}
	r.run(t, workload.SortBenchmark(p), 200*sim.Millisecond)
	for _, arr := range []struct {
		base uint64
		n    int
	}{
		{workload.QuickBase, 10 * p.N},
		{workload.SelectBase, p.N},
		{workload.BubbleBase, p.N},
	} {
		vals := make([]uint64, arr.n)
		buf := make([]byte, 8)
		for i := 0; i < arr.n; i++ {
			r.store.Read(arr.base+uint64(i)*8, buf)
			for b := 7; b >= 0; b-- {
				vals[i] = vals[i]<<8 | uint64(buf[b])
			}
		}
		if !sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] < vals[j] }) {
			t.Fatalf("array at %#x not sorted: %v", arr.base, vals[:min(10, len(vals))])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestBranchHeavyLowerIPC(t *testing.T) {
	// A tight loop (taken branch every few instructions) should have lower
	// IPC than the same work unrolled 16x (one taken branch per 18 insts),
	// since taken control flow pays the fetch-redirect penalty.
	tight := `
main:
    li t0, 0
    li t1, 16000
loop:
    addi t0, t0, 1
    blt  t0, t1, loop
    li a7, 93
    ecall
`
	unrolled := "main:\n    li t0, 0\n    li t1, 16000\nloop:\n"
	for i := 0; i < 16; i++ {
		unrolled += "    addi t0, t0, 1\n"
	}
	unrolled += "    blt t0, t1, loop\n    li a7, 93\n    ecall\n"

	r1 := newRig(t)
	r1.run(t, tight, 50*sim.Millisecond)
	st1 := r1.core.Stats()
	r2 := newRig(t)
	r2.run(t, unrolled, 50*sim.Millisecond)
	st2 := r2.core.Stats()
	if st1.IPC() >= st2.IPC() {
		t.Fatalf("tight-loop IPC %.2f >= unrolled IPC %.2f", st1.IPC(), st2.IPC())
	}
}

func TestAssemblerRoundTrip(t *testing.T) {
	img, err := isa.Assemble(workload.SortBenchmark(workload.SortParams{N: 10, SleepUs: 1}))
	if err != nil {
		t.Fatal(err)
	}
	text, err := isa.Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(text) == 0 {
		t.Fatal("empty disassembly")
	}
}

func BenchmarkCoreCyclesPerSecond(b *testing.B) {
	r := newRig(b)
	img, _ := isa.Assemble(workload.SimpleLoop(1 << 30))
	r.core.LoadProgram(img)
	r.core.Start()
	b.ResetTimer()
	r.q.RunUntil(sim.Tick(b.N) * r.dom.Period())
}
