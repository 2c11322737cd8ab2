package experiments

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"gem5rtl/internal/guard"
	"gem5rtl/internal/nvdla"
	"gem5rtl/internal/pmu"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/soc"
	"gem5rtl/internal/trace"
	"gem5rtl/internal/workload"
)

// FaultCampaign configures a seeded NVDLA fault-injection campaign: Count
// independent simulations of Spec, each with exactly one fault injected at a
// seed-derived point (port payload flips, lost/replayed/delayed responses,
// DRAM bit flips), classified against a fault-free reference run. The same
// Seed always produces the same fault list and — because each point is a
// single-threaded deterministic simulation — the same classification table,
// regardless of the runner's worker count.
type FaultCampaign struct {
	Spec  RunSpec
	Seed  uint64
	Count int
	// Guard tunes the per-run watchdog that reaps hung injections. The zero
	// value selects the guard defaults.
	Guard guard.Config
}

// FaultResult is the classified outcome of one injection.
type FaultResult struct {
	Index   int
	Fault   guard.Fault
	Outcome guard.Outcome
	// Detail is the outcome evidence: the watchdog trip reason, the recovered
	// panic, or a note that the fault point was never reached.
	Detail string
	// Err is a campaign-level failure (cancellation, build error) — distinct
	// from the fault's own effect, which is always an Outcome.
	Err error
}

// memRegion is a preloaded or written address range within one accelerator's
// private region (base-relative).
type memRegion struct {
	addr uint64
	size uint64
}

// traceRegions extracts the base-relative memory footprint of a trace: the
// preloaded input/weight regions and the programmed output regions.
func traceRegions(tr *trace.Trace) (loads, outs []memRegion) {
	var outLo, outHi uint64
	var outBytes uint32
	for _, op := range tr.Ops {
		switch op.Kind {
		case trace.OpLoadMem:
			if len(op.Data) > 0 {
				loads = append(loads, memRegion{op.Addr, uint64(len(op.Data))})
			}
		case trace.OpWriteReg:
			switch op.Addr {
			case nvdla.RegOutAddrLo:
				outLo = uint64(op.Val)
			case nvdla.RegOutAddrHi:
				outHi = uint64(op.Val)
			case nvdla.RegOutBytes:
				outBytes = op.Val
			case nvdla.RegLayerCommit:
				if op.Val&1 != 0 && outBytes > 0 {
					outs = append(outs, memRegion{outHi<<32 | outLo, uint64(outBytes)})
				}
			}
		}
	}
	return loads, outs
}

// faultRunResult is the raw outcome of one (possibly faulted) simulation.
type faultRunResult struct {
	sig   uint64
	end   sim.Tick
	hang  *guard.HangError
	fired bool
}

// faultRun builds and runs one point with an optional injected fault under
// the campaign's watchdog, returning the output signature and hang state. A
// nil fault is the reference run.
func (r Runner) faultRun(ctx context.Context, c FaultCampaign, f *guard.Fault, outs []memRegion) (faultRunResult, error) {
	var res faultRunResult
	if err := ctx.Err(); err != nil {
		return res, err
	}
	spec := c.Spec
	s, err := buildPoint(spec, r.oracles)
	if err != nil {
		return res, err
	}
	err = r.handRun(s, func() error {
		var tap *guard.PacketFaultTap
		if f != nil {
			switch f.Kind {
			case guard.ReadPayloadFlip, guard.WritePayloadFlip, guard.DropResp, guard.DupResp, guard.DelayResp:
				tap = &guard.PacketFaultTap{F: *f}
				dla, pi := f.Link/2, f.Link%2
				inj := port.Interpose(s.NVDLAs[dla].MemPort(pi), tap)
				tap.BindDelay(s.Queue, inj)
			case guard.DRAMBitFlip:
				addr, bit := f.Addr, f.Bit%8
				s.Queue.ScheduleOneShotOwned("guard.dram-bit-flip", f.Tick,
					s.Queue.Owner("guard", "fault-inject"), func() {
						var b [1]byte
						s.Store.Read(addr, b[:])
						b[0] ^= 1 << bit
						s.Store.Write(addr, b[:])
						res.fired = true
					})
			}
		}
		_, remaining, runErr := s.RunNVDLAPhase(ctx, spec.Limit)
		res.end = s.Queue.Now()
		if runErr != nil && !errors.As(runErr, &res.hang) {
			return runErr
		}
		if res.hang == nil && remaining > 0 {
			res.hang = &guard.HangError{Tick: res.end,
				Reason: fmt.Sprintf("time limit with %d accelerators still running", remaining)}
		}
		if tap != nil {
			res.fired = tap.Fired
		} else if f == nil {
			res.fired = true
		}
		res.sig = outputSignature(s, outs)
		return nil
	}, WithWatchdog(c.Guard))
	return res, err
}

// outputSignature hashes what the run architecturally produced: each
// accelerator's completion flag and the bytes of every output region. Timing
// is deliberately excluded, so a pure latency fault that still produces the
// right data classifies as masked.
func outputSignature(s *soc.System, outs []memRegion) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 4096)
	for _, w := range s.NVDLAWrappers {
		if w.Done() {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	for _, reg := range outs {
		for off := uint64(0); off < reg.size; off += uint64(len(buf)) {
			n := reg.size - off
			if n > uint64(len(buf)) {
				n = uint64(len(buf))
			}
			s.Store.Read(reg.addr+off, buf[:n])
			h.Write(buf[:n])
		}
	}
	return h.Sum64()
}

// genFaults derives the campaign's fault list from the seed. Each fault draws
// from its own DeriveSeed stream, so the list is stable under Count changes:
// fault i is the same in a 10-fault and a 100-fault campaign.
func genFaults(c FaultCampaign, tr *trace.Trace, loads, outs []memRegion, refEnd sim.Tick) []guard.Fault {
	faults := make([]guard.Fault, c.Count)
	links := c.Spec.NVDLAs * 2
	readPkts := tr.TotalReadBytes / 64
	if readPkts == 0 {
		readPkts = 1
	}
	writePkts := tr.TotalWriteBytes / 64
	if writePkts == 0 {
		writePkts = 1
	}
	regions := append(append([]memRegion{}, loads...), outs...)
	for i := range faults {
		rng := guard.NewRNG(guard.DeriveSeed(c.Seed, i))
		f := &faults[i]
		k := rng.Intn(100)
		switch {
		case k < 20:
			f.Kind = guard.ReadPayloadFlip
		case k < 40:
			f.Kind = guard.WritePayloadFlip
		case k < 55:
			f.Kind = guard.DropResp
		case k < 65:
			f.Kind = guard.DupResp
		case k < 75:
			f.Kind = guard.DelayResp
		default:
			f.Kind = guard.DRAMBitFlip
		}
		switch f.Kind {
		case guard.WritePayloadFlip:
			// Output writes all leave through the DBBIF port (even links).
			f.Link = 2 * rng.Intn(c.Spec.NVDLAs)
			f.PktIndex = rng.Uint64n(writePkts)
			f.Byte = rng.Intn(64)
			f.Bit = uint(rng.Intn(8))
		case guard.ReadPayloadFlip, guard.DropResp, guard.DupResp, guard.DelayResp:
			f.Link = rng.Intn(links)
			// Keep indices in the first quarter of the read stream so the
			// fault point is almost surely reached on either port.
			f.PktIndex = rng.Uint64n(max(readPkts/4, 1))
			f.Byte = rng.Intn(64)
			f.Bit = uint(rng.Intn(8))
			if f.Kind == guard.DelayResp {
				f.Delay = sim.Tick(1+rng.Intn(10)) * sim.Microsecond
			}
		case guard.DRAMBitFlip:
			dla := rng.Intn(c.Spec.NVDLAs)
			reg := regions[rng.Intn(len(regions))]
			f.Addr = (uint64(dla)+1)<<32 + reg.addr + rng.Uint64n(reg.size)
			f.Bit = uint(rng.Intn(8))
			f.Tick = 1 + sim.Tick(rng.Uint64n(uint64(refEnd)))
		}
	}
	return faults
}

// FaultCampaign runs the configured campaign on the runner's worker pool:
// one fault-free reference run, then Count single-fault runs classified
// against it (see campaign). The returned error is non-nil only for
// campaign-level failures: a failing reference run or context cancellation
// (partial results are still returned).
func (r Runner) FaultCampaign(ctx context.Context, c FaultCampaign) ([]FaultResult, error) {
	if c.Spec.NVDLAs <= 0 {
		return nil, fmt.Errorf("experiments: fault campaign needs at least one accelerator")
	}
	tr, err := trace.Scaled(c.Spec.Workload, 0, c.Spec.Scale)
	if err != nil {
		return nil, err
	}
	loads, outs := traceRegions(tr)
	var outsAbs []memRegion
	for dla := 0; dla < c.Spec.NVDLAs; dla++ {
		base := (uint64(dla) + 1) << 32
		for _, reg := range outs {
			outsAbs = append(outsAbs, memRegion{base + reg.addr, reg.size})
		}
	}
	return r.campaign(ctx, "fault-campaign",
		func(ctx context.Context, f *guard.Fault) (faultRunResult, error) {
			return r.faultRun(ctx, c, f, outsAbs)
		},
		func(ref faultRunResult) []guard.Fault { return genFaults(c, tr, loads, outs, ref.end) })
}

// campaign is the skeleton both fault campaigns share. run executes the
// system once, with the given fault or, for nil, fault-free; faults derives
// the fault list from the reference run. The reference run must finish
// without hanging. Every fault then runs on the worker pool and is
// classified against the reference: a hung injection is reaped by the
// per-run watchdog and reported as an Outcome, not an error, and a panicking
// one (a duplicated response hitting an integrity check, say) classifies as
// Detected, so a campaign never crashes on a fault the simulator caught.
func (r Runner) campaign(ctx context.Context, what string,
	run func(ctx context.Context, f *guard.Fault) (faultRunResult, error),
	faults func(ref faultRunResult) []guard.Fault) ([]FaultResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ref, err := run(ctx, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s reference run: %w", what, err)
	}
	if ref.hang != nil {
		return nil, fmt.Errorf("experiments: %s reference run hung: %s", what, ref.hang.Reason)
	}
	fs := faults(ref)
	results := make([]FaultResult, len(fs))
	for i := range results {
		results[i] = FaultResult{Index: i, Fault: fs[i]}
	}
	err = r.ForEach(ctx, len(fs), func(ctx context.Context, i int) error {
		res := &results[i]
		var got faultRunResult
		err := Recover(item(i), func() (err error) {
			got, err = run(ctx, &res.Fault)
			return err
		})
		var p *PanicError
		switch {
		case errors.As(err, &p):
			res.Outcome, res.Detail = guard.Detected, fmt.Sprintf("panic: %v", p.Value)
		case err != nil:
			res.Err = err
		default:
			res.Outcome, res.Detail = classify(got, ref)
		}
		return ctx.Err()
	})
	return results, err
}

// classify maps a faulted run against the reference.
func classify(run, ref faultRunResult) (guard.Outcome, string) {
	switch {
	case run.hang != nil:
		return guard.Hung, run.hang.Reason
	case run.sig != ref.sig:
		return guard.Corrupted, "output signature differs from reference"
	case !run.fired:
		return guard.Masked, "fault point never reached"
	default:
		return guard.Masked, ""
	}
}

// FormatFaultTable renders the campaign's kind x outcome classification
// counts. The text is deterministic in the results, so two same-seed
// campaigns render byte-identical tables.
func FormatFaultTable(results []FaultResult) string {
	var counts [guard.RTLStateFlip + 1][4]int
	errs := 0
	for _, r := range results {
		if r.Err != nil {
			errs++
			continue
		}
		counts[r.Fault.Kind][r.Outcome]++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %7s %9s %10s %5s %6s\n",
		"kind", "masked", "detected", "corrupted", "hung", "total")
	for k := range counts {
		row := counts[k]
		total := row[0] + row[1] + row[2] + row[3]
		if total == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-20s %7d %9d %10d %5d %6d\n",
			guard.FaultKind(k), row[0], row[1], row[2], row[3], total)
	}
	if errs > 0 {
		fmt.Fprintf(&b, "errors: %d\n", errs)
	}
	return b.String()
}

// PMUCampaign configures a seeded RTL-state fault campaign against the PMU:
// Count runs of the sort benchmark with the PMU attached, each flipping one
// seed-selected register or memory bit of the PMU's RTL model at a
// seed-selected simulated time.
type PMUCampaign struct {
	Seed  uint64
	Count int
	// SortN sizes the guest sort benchmark (0 = 60).
	SortN int
	// SleepUs separates the benchmark phases (0 = 10).
	SleepUs int
	// Limit bounds one run's simulated time (0 = 1 s).
	Limit sim.Tick
	Guard guard.Config
}

// pmuRun executes the PMU workload once with an optional RTL state flip
// under the campaign's watchdog.
func (r Runner) pmuRun(ctx context.Context, c PMUCampaign, f *guard.Fault) (faultRunResult, error) {
	var res faultRunResult
	if err := ctx.Err(); err != nil {
		return res, err
	}
	sp := sortRun{SortParams: workload.SortParams{N: c.SortN, SleepUs: c.SleepUs}, PMU: true, Interval: 10000}
	err := r.runSort(sp, func(s *sortSystem) error {
		if f != nil {
			pick := f.Pick
			s.Queue.ScheduleOneShotOwned("guard.rtl-state-flip", f.Tick,
				s.Queue.Owner("guard", "fault-inject"), func() {
					// The flip is a back door into a model that may be
					// asleep: wake it first, so the cycles before the flip
					// run without it.
					s.PMU.Wake()
					s.PMUWrapper.Model().InjectStateFlip(pick)
					res.fired = true
				})
		} else {
			res.fired = true
		}
		if err := runFor(ctx, s.System, c.Limit); err != nil {
			return err
		}
		res.end = s.Queue.Now()
		if !errors.As(s.Watchdog.Err(), &res.hang) && !s.exited {
			res.hang = &guard.HangError{Tick: res.end, Reason: "time limit before guest exit"}
		}
		// Signature: the 20 PMU counters plus the core's committed-instruction
		// count — a flipped counter or a derailed measurement both surface
		// here. RunUntil has settled the PMU, so the counters are the ones
		// ticking every cycle would show, however the run ended.
		h := fnv.New64a()
		var buf [8]byte
		for i := 0; i < pmu.NumCounters; i++ {
			v := s.PMUWrapper.Counter(i)
			buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			h.Write(buf[:4])
		}
		committed := s.Cores[0].Stats().Committed
		for i := 0; i < 8; i++ {
			buf[i] = byte(committed >> (8 * i))
		}
		h.Write(buf[:])
		res.sig = h.Sum64()
		return nil
	}, WithWatchdog(c.Guard))
	return res, err
}

// PMUFaultCampaign runs the configured PMU campaign on the runner's worker
// pool. Semantics mirror FaultCampaign: one reference run, Count classified
// single-fault runs, hangs reaped by the watchdog, same seed, same table.
func (r Runner) PMUFaultCampaign(ctx context.Context, c PMUCampaign) ([]FaultResult, error) {
	if c.SortN <= 0 {
		c.SortN = 60
	}
	if c.SleepUs <= 0 {
		c.SleepUs = 10
	}
	if c.Limit <= 0 {
		c.Limit = 1 * sim.Second
	}
	return r.campaign(ctx, "PMU fault-campaign",
		func(ctx context.Context, f *guard.Fault) (faultRunResult, error) { return r.pmuRun(ctx, c, f) },
		func(ref faultRunResult) []guard.Fault {
			faults := make([]guard.Fault, c.Count)
			for i := range faults {
				rng := guard.NewRNG(guard.DeriveSeed(c.Seed, i))
				faults[i] = guard.Fault{
					Kind: guard.RTLStateFlip,
					Pick: rng.Uint64(),
					Tick: 1 + sim.Tick(rng.Uint64n(uint64(ref.end))),
				}
			}
			return faults
		})
}
