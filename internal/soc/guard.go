package soc

import (
	"fmt"

	"gem5rtl/internal/guard"
)

// AttachWatchdog installs a liveness watchdog over every component of the
// system: caches, crossbars, memory controllers, cores and RTL objects
// register as occupancy probes, and retirement/commit counters feed the
// forward-progress check. The watchdog polls the run loop rather than
// scheduling events, so an untripped run is the same machine — dispatch
// count and checkpoint bytes included — as an unwatched one, and
// the system may be saved with it attached.
//
// A trip ends the simulation loop and surfaces a *guard.HangError from
// RunNVDLAPhase / RunUntilNVDLAsDoneCtx (or via Watchdog.Err for manual
// RunUntil loops).
func (s *System) AttachWatchdog(cfg guard.Config) *guard.Watchdog {
	wd := guard.NewWatchdog(s.Queue, cfg)
	for i, c := range s.Cores {
		c := c
		wd.Watch(c)
		wd.AddProgress(fmt.Sprintf("cpu%d.committed", i), func() uint64 {
			return c.Stats().Committed
		})
	}
	for _, c := range s.L1Is {
		wd.Watch(c)
	}
	for _, c := range s.L1Ds {
		wd.Watch(c)
	}
	for _, c := range s.L2s {
		wd.Watch(c)
	}
	if s.LLC != nil {
		wd.Watch(s.LLC)
	}
	for _, x := range s.L2Muxes {
		wd.Watch(x)
	}
	if s.CPUXbar != nil {
		wd.Watch(s.CPUXbar)
	}
	if s.MemXbar != nil {
		wd.Watch(s.MemXbar)
	}
	if s.DRAM != nil {
		wd.Watch(s.DRAM)
		wd.AddProgress("mem.retired", s.DRAM.Retired)
	}
	if s.Ideal != nil {
		wd.Watch(s.Ideal)
		wd.AddProgress("mem.retired", s.Ideal.Retired)
	}
	for i, spm := range s.Scratchpads {
		wd.Watch(spm)
		wd.AddProgress(fmt.Sprintf("spm%d.retired", i), spm.Retired)
	}
	if s.PMU != nil {
		// Progress needs no settling: a sleeping PMU owes only cycles that
		// change no output, and its interrupts, like its CPU requests, come
		// from real ticks, so the probe reads the per-cycle machine's count
		// at every check.
		wd.Watch(s.PMU)
		wd.AddProgress("pmu.progress", s.PMU.Progress)
	}
	for i, o := range s.NVDLAs {
		o := o
		wd.Watch(o)
		wd.AddProgress(fmt.Sprintf("nvdla%d.progress", i), o.Progress)
	}
	for i, w := range s.NVDLAWrappers {
		w := w
		wd.Watch(w)
		wd.AddProgress(fmt.Sprintf("nvdla%d.tiles", i), func() uint64 {
			return w.Stats().TilesDone
		})
	}
	if s.Tracer != nil {
		wd.SetTraceTail(s.Tracer.Tail)
	}
	s.Watchdog = wd
	return wd
}
