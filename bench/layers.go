package main

import (
	"strings"
	"time"

	"gem5rtl/internal/prof"
)

// Layer names are module names. The self-profiler attributes soc.run host
// time to event owners named "<component>/<kind>"; layerOf maps an owner to
// the module whose code the event runs. README.md carries the same table.
const (
	layerSim       = "sim"
	layerCPU       = "cpu"
	layerCache     = "cache"
	layerNoC       = "noc"
	layerMem       = "mem"
	layerRTLObject = "rtlobject"
	layerRTLC      = "rtlc"
	layerPMU       = "pmu"
	layerNVDLA     = "nvdla"
)

var shareLayers = []string{layerSim, layerCPU, layerCache, layerNoC, layerMem,
	layerRTLObject, layerRTLC, layerPMU, layerNVDLA}

// shareMetric names the metric holding a layer's share of soc.run. What the
// profiler cannot attribute is the event kernel's.
func shareMetric(layer string) string {
	if layer == layerSim {
		return "sim.unattributed_share"
	}
	return layer + ".self_share"
}

// layerOf maps a profiler owner to its layer. The tick owners of RTL devices
// ("pmu/tick", "nvdlaN/tick") cover both the rtlobject coupling and the
// model behind it; they map to rtlobject here and layerAcc.metrics moves the
// model's part out, priced by the stand-alone micro-probes.
func layerOf(component, kind string) string {
	switch {
	case strings.HasPrefix(kind, "rtl-"):
		return layerRTLC
	case component == "pmu" || strings.HasPrefix(component, "nvdla"):
		return layerRTLObject
	case strings.Contains(component, "xbar") || strings.Contains(component, "l2mux"):
		return layerNoC
	case component == "llc" || strings.Contains(component, ".l1") || strings.Contains(component, ".l2"):
		return layerCache
	case strings.HasPrefix(component, "cpu"):
		return layerCPU
	case strings.HasPrefix(component, "DDR4") || component == "GDDR5" || component == "HBM" ||
		strings.HasPrefix(component, "ideal"):
		return layerMem
	}
	// "(unattributed)", the context watcher, the liveness guard.
	return layerSim
}

// layerAcc accumulates the traced passes' observations and holds the values
// of the per-layer metrics as they become known.
type layerAcc struct {
	ops    int
	passes int
	attr   prof.Report // merged over every profiled soc.run
	runNS  float64     // host time of those soc.run stages
	sys    sysStats
	// rowHit and readLat are per-run DRAM ratios, averaged at the end.
	rowHit, readLat []float64
	committed       uint64
	memBytesRead    uint64
	// opRunNS holds the soc.run time of each profiled run, in order.
	opRunNS []float64
	// pmuGlueNS is the PMU wrapper's own cost per tick, the micro-probe's
	// wrapper tick minus its bare model tick.
	pmuGlueNS float64
	// What the sweepd clients saw over the traced passes.
	svc         svcStats
	svcWall     time.Duration
	svcWorkers  int
	storeGrowth int
	values      map[string]float64
}

func newLayerAcc() *layerAcc { return &layerAcc{values: map[string]float64{}} }

func (a *layerAcc) nextOp() int { a.ops++; return a.ops }

func (a *layerAcc) set(name string, v float64) { a.values[name] = v }

// add folds one profiled staged run in.
func (a *layerAcc) add(o *observed) {
	a.attr.Merge(o.Attr)
	a.runNS += float64(o.RunNS)
	a.opRunNS = append(a.opRunNS, float64(o.RunNS))
	a.committed += o.Result.CommittedInsts
	a.memBytesRead += o.Result.MemBytesRead
	s := &a.sys
	s.L1DHits += o.Sys.L1DHits
	s.L1DMisses += o.Sys.L1DMisses
	s.LLCMisses += o.Sys.LLCMisses
	s.MemAccepted += o.Sys.MemAccepted
	s.MemRetries += o.Sys.MemRetries
	s.ObjRetired += o.Sys.ObjRetired
	s.ObjTotalMemLat += o.Sys.ObjTotalMemLat
	s.NVDLAReads += o.Sys.NVDLAReads
	s.VCDSize += o.Sys.VCDSize
	if o.Sys.MemAccepted > 0 {
		a.rowHit = append(a.rowHit, o.Sys.MemRowHitRate)
		a.readLat = append(a.readLat, o.Sys.MemAvgReadLat)
	}
}

// finish turns the accumulated observations into metric values. Counts are
// per pass, so they repeat exactly however many passes the run had time for;
// shares are fractions of the profiled soc.run time and sum to 1.
func (a *layerAcc) finish() {
	perPass := func(n uint64) float64 { return ratio(float64(n), float64(a.passes)) }
	ns := map[string]float64{}
	ev := map[string]uint64{}
	var phaseNS [3]float64 // comb, seq, memw
	var phaseEvents, pmuTickNS, nvdlaTickNS, totalNS float64
	// Dispatches and device ticks come from the profiler's exact event
	// counts, so the sweepd workloads, whose systems live inside the server,
	// report them too.
	var events, pmuTicks, nvdlaTicks uint64
	for _, s := range a.attr.Samples {
		l := layerOf(s.Component, s.Kind)
		ns[l] += float64(s.HostNS)
		totalNS += float64(s.HostNS)
		if l == layerRTLC {
			phaseEvents += float64(s.Events)
			for i, k := range []string{"rtl-comb", "rtl-seq", "rtl-memw"} {
				if s.Kind == k {
					phaseNS[i] += float64(s.HostNS)
				}
			}
			continue
		}
		ev[l] += s.Events
		events += s.Events
		if s.Kind == "tick" && s.Component == "pmu" {
			pmuTickNS += float64(s.HostNS)
			pmuTicks += s.Events
		}
		if s.Kind == "tick" && strings.HasPrefix(s.Component, "nvdla") {
			nvdlaTickNS += float64(s.HostNS)
			nvdlaTicks += s.Events
		}
	}
	// Move the models' part of the device tick owners out of rtlobject: the
	// stand-alone cost per tick times the ticks, at most what the owner has.
	pmuNS := min(pmuTickNS, a.pmuGlueNS*float64(pmuTicks))
	nvdlaNS := min(nvdlaTickNS, a.values["nvdla.standalone_ns_per_tick"]*float64(nvdlaTicks))
	ns[layerPMU] += pmuNS
	ns[layerNVDLA] += nvdlaNS
	ns[layerRTLObject] -= pmuNS + nvdlaNS

	for _, l := range shareLayers {
		a.set(shareMetric(l), ratio(ns[l], totalNS))
	}
	a.set("rtlc.comb_share", ratio(phaseNS[0], totalNS))
	a.set("rtlc.seq_share", ratio(phaseNS[1], totalNS))
	a.set("rtlc.memw_share", ratio(phaseNS[2], totalNS))
	a.set("rtlc.phase_events", ratio(phaseEvents, float64(a.passes)))

	a.set("sim.events", perPass(events))
	a.set("sim.host_ns_per_event", ratio(a.runNS, float64(events)))
	a.set("sim.kernel_share_est", ratio(float64(events)*a.values["sim.dispatch_ns"], a.runNS))
	a.set("cpu.events", perPass(ev[layerCPU]))
	a.set("cpu.committed_insts", perPass(a.committed))
	a.set("cpu.sim_mips", ratio(float64(a.committed), a.runNS/1e3))
	a.set("cache.events", perPass(ev[layerCache]))
	a.set("cache.l1d_hits", perPass(a.sys.L1DHits))
	a.set("cache.l1d_misses", perPass(a.sys.L1DMisses))
	a.set("cache.llc_misses", perPass(a.sys.LLCMisses))
	a.set("noc.events", perPass(ev[layerNoC]))
	a.set("mem.events", perPass(ev[layerMem]))
	a.set("mem.bytes_read", perPass(a.memBytesRead))
	a.set("mem.row_hit_rate", ratio(sum(a.rowHit), float64(len(a.rowHit))))
	a.set("mem.avg_read_latency_ticks", ratio(sum(a.readLat), float64(len(a.readLat))))
	a.set("mem.retries_sent", perPass(a.sys.MemRetries))
	a.set("mem.accept_ratio", ratio(float64(a.sys.MemAccepted), float64(a.sys.MemAccepted+a.sys.MemRetries)))
	a.set("rtlobject.ticks", perPass(pmuTicks+nvdlaTicks))
	a.set("rtlobject.ns_per_tick", ratio(ns[layerRTLObject], float64(pmuTicks+nvdlaTicks)))
	a.set("rtlobject.avg_mem_latency_ticks", ratio(float64(a.sys.ObjTotalMemLat), float64(a.sys.ObjRetired)))
	a.set("rtl.vcd_bytes", perPass(a.sys.VCDSize))
	a.set("nvdla.ticks", perPass(nvdlaTicks))
	a.set("nvdla.mem_reads", perPass(a.sys.NVDLAReads))
}
