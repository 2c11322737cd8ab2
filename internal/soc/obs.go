package soc

import (
	"fmt"

	"gem5rtl/internal/nvdla"
	"gem5rtl/internal/obs"
	"gem5rtl/internal/port"
)

// AttachTracer builds a Tracer from cfg and wires it through every component
// of the system: each component receives its debug-flag logger (a nil
// pointer when that flag is off), and — when the Port flag is selected —
// trace taps are interposed on the principal links. Attach before the run
// starts; with no flags selected every hot-path guard stays a nil check.
//
// If a watchdog is already attached (or attached later), its hang
// diagnostics pick up the tracer's per-component tail automatically.
func (s *System) AttachTracer(cfg obs.Config) (*obs.Tracer, error) {
	t, err := obs.NewTracer(s.Queue, cfg)
	if err != nil {
		return nil, err
	}
	for _, c := range s.Cores {
		c.AttachTracer(t)
	}
	for _, c := range s.L1Is {
		c.AttachTracer(t)
	}
	for _, c := range s.L1Ds {
		c.AttachTracer(t)
	}
	for _, c := range s.L2s {
		c.AttachTracer(t)
	}
	if s.LLC != nil {
		s.LLC.AttachTracer(t)
	}
	for _, x := range s.L2Muxes {
		x.AttachTracer(t)
	}
	if s.CPUXbar != nil {
		s.CPUXbar.AttachTracer(t)
	}
	if s.MemXbar != nil {
		s.MemXbar.AttachTracer(t)
	}
	if s.DRAM != nil {
		s.DRAM.AttachTracer(t)
	}
	if s.Ideal != nil {
		s.Ideal.AttachTracer(t)
	}
	for _, spm := range s.Scratchpads {
		spm.AttachTracer(t)
	}
	if s.PMU != nil {
		s.PMU.AttachTracer(t)
		s.PMUWrapper.AttachTracer(t)
	}
	for i, o := range s.NVDLAs {
		o.AttachTracer(t)
		s.NVDLAWrappers[i].AttachTracer(t)
	}
	if t.Enabled("Port") {
		s.interposePortTaps(t)
	}
	if s.Watchdog != nil {
		s.Watchdog.SetTraceTail(t.Tail)
	}
	s.Tracer = t
	return t, nil
}

// interposePortTaps wraps the principal links with Port-flag trace taps:
// each core's instruction and data edges, the LLC's memory side, and each
// accelerator's DBBIF/SRAMIF. Links are identified by their request port
// names, matching the watchdog's component naming.
func (s *System) interposePortTaps(t *obs.Tracer) {
	for _, c := range s.Cores {
		port.Interpose(c.IPort(), t.PortTap(c.IPort().Name()))
		port.Interpose(c.DPort(), t.PortTap(c.DPort().Name()))
	}
	if s.LLC != nil {
		port.Interpose(s.LLC.MemPort(), t.PortTap(s.LLC.MemPort().Name()))
	}
	for _, o := range s.NVDLAs {
		dbb := o.MemPort(nvdla.PortDBBIF)
		port.Interpose(dbb, t.PortTap(dbb.Name()))
		sram := o.MemPort(nvdla.PortSRAMIF)
		port.Interpose(sram, t.PortTap(sram.Name()))
	}
}

// AttachLatencyProfile interposes packet-lifetime latency taps on the
// system's principal links and registers their histograms with the stats
// registry: per-core end-to-end data latency (cpuN.dside), LLC ingress
// (llc.in), memory ingress (mem.in) and per-accelerator DBBIF/SRAMIF. Pass
// a ChromeTrace to additionally collect one span per completed packet for
// trace-event export (nil disables span collection).
//
// Attach before the run starts. A system checkpointed with a profile
// attached must be restored with one attached (same topology): the
// histogram and in-flight stamps travel in the checkpoint stream, so
// packets straddling the checkpoint keep their original inject ticks.
func (s *System) AttachLatencyProfile(chrome *obs.ChromeTrace) *obs.LatencyProfile {
	p := obs.NewLatencyProfile(s.Queue)
	p.Chrome = chrome
	for i, c := range s.Cores {
		port.Interpose(c.DPort(), p.Tap(fmt.Sprintf("cpu%d.dside", i)))
	}
	if s.CPUXbar != nil {
		port.Interpose(s.CPUXbar.DownPort(0), p.Tap("llc.in"))
	}
	if s.MemXbar != nil {
		port.Interpose(s.MemXbar.DownPort(0), p.Tap("mem.in"))
	}
	for i, o := range s.NVDLAs {
		port.Interpose(o.MemPort(nvdla.PortDBBIF), p.Tap(fmt.Sprintf("nvdla%d.dbbif", i)))
		port.Interpose(o.MemPort(nvdla.PortSRAMIF), p.Tap(fmt.Sprintf("nvdla%d.sramif", i)))
	}
	p.Register(s.Stats)
	s.Latency = p
	return p
}
