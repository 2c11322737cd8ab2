package main

import (
	"flag"
	"runtime"
	"strconv"
	"testing"
)

// host is the host family's flags and defaults, which every experiment
// command takes.
var host = map[string]string{
	"timeout": "0s", "pprof": "", "host-metrics": "",
	"self-profile": "0", "self-profile-out": "",
}

// with returns host plus the command's own flags.
func with(own map[string]string) map[string]string {
	out := map[string]string{}
	for k, v := range host {
		out[k] = v
	}
	for k, v := range own {
		out[k] = v
	}
	return out
}

// numCPU stands for a runtime.NumCPU() default.
const numCPU = "NumCPU"

// addr is the -addr every sweepctl verb that talks to a server takes.
var addr = map[string]string{"addr": "http://localhost:8080"}

// flagSurface is every command's flags and their defaults: the bare run's are
// gem5rtl's own, the subcommands' are those of the binaries they replace —
// nvdla-dse for dse, faultcamp for faultcamp, overhead ∪ pmurun split across
// fig5, table2 and table3, whose -table and -table2 became the subcommand
// names, and sweepd, sweepctl's verbs and rtlsim for the subcommands of those
// names.
var flagSurface = map[string]map[string]string{
	"": with(map[string]string{
		"cores": "8", "mem": "DDR4-4ch", "program": "sort", "n": "200", "pmu": "false",
		"nvdla": "0", "inflight": "64", "dla-workload": "sanity3", "dla-scale": "8",
		"scratchpad": "false", "limit-ms": "2000", "checkpoint-at": "0s",
		"checkpoint-out": "gem5rtl.ckpt", "restore": "", "watchdog": "false",
		"check-ports": "false", "debug-flags": "", "debug-start": "0s", "debug-end": "0s",
		"debug-file": "", "stats-interval": "0s", "stats-out": "", "stats-format": "jsonl",
		"trace-out": "", "lat-hist": "false",
	}),
	"fig5":   with(map[string]string{"n": "250", "sleep-us": "100", "interval": "10000"}),
	"table2": with(map[string]string{"sleep-us": "100", "parallel": "1"}),
	"table3": with(map[string]string{"scale": "8", "parallel": "1"}),
	"dse": with(map[string]string{
		"workload": "googlenet", "scale": "8", "parallel": numCPU, "v": "false",
		"watchdog": "false", "check-ports": "false",
	}),
	"faultcamp": with(map[string]string{
		"target": "nvdla", "workload": "sanity3", "scale": "64", "nvdla": "1", "mem": "ideal",
		"inflight": "64", "seed": "1", "n": "32", "parallel": numCPU, "limit-ms": "2000",
		"check-ports": "false", "v": "false",
	}),
	"sweepd": {
		"addr": "localhost:8080", "workers": "0", "store-dir": "", "quota": "0", "max-queue": "0",
		"retry-max": "0", "retry-base": "0s", "retry-seed": "0", "point-deadline": "0s",
		"drain-timeout": "10m0s", "watchdog": "false", "self-profile": "0",
	},
	"sweepctl grid": {
		"workload": "sanity3", "n": "1", "scale": "32",
		"mems": "DDR4-1ch,DDR4-4ch,HBM", "inflights": "1,16,64,240",
	},
	"sweepctl submit": {
		"addr": "http://localhost:8080", "client": "", "priority": "0", "wait": "false",
	},
	"sweepctl status":        addr,
	"sweepctl results":       addr,
	"sweepctl watch":         addr,
	"sweepctl cancel":        addr,
	"sweepctl local":         {"parallel": "0"},
	"sweepctl server-status": addr,
	"sweepctl metrics":       addr,
	"sweepctl top":           {"addr": "http://localhost:8080", "k": "15"},
	"sweepctl healthz":       addr,
	"sweepctl quarantine":    addr,
	"sweepctl unquarantine":  addr,
	"sweepctl drain":         addr,
	"rtlsim": {
		"top": "", "cycles": "10", "vcd": "", "checkpoint": "", "restore": "", "set": "",
		"pprof": "", "self-profile": "0", "self-profile-out": "",
	},
}

// TestFlagSurface holds each subcommand, each sweepctl verb and the bare run
// to its flag table: a flag dropped, renamed or added, or a default changed,
// fails it. Building every flag set also catches a family registered twice
// on one set, which panics.
func TestFlagSurface(t *testing.T) {
	defines := map[string]func() (*flag.FlagSet, func()){"": fullSystem}
	for _, c := range commands {
		if c.define != nil {
			defines[c.name] = c.define
		}
		for _, v := range c.verbs {
			defines[c.name+" "+v.name] = v.define
		}
	}
	if len(defines) != len(flagSurface) {
		t.Fatalf("%d commands, %d flag tables", len(defines), len(flagSurface))
	}
	for name, want := range flagSurface {
		define := defines[name]
		if define == nil {
			t.Fatalf("no command %q", name)
		}
		fs, _ := define()
		got := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		for flagName, def := range want {
			if def == numCPU {
				def = strconv.Itoa(runtime.NumCPU())
			}
			g, ok := got[flagName]
			switch {
			case !ok:
				t.Errorf("gem5rtl %s: flag -%s missing", name, flagName)
			case g != def:
				t.Errorf("gem5rtl %s: -%s defaults to %q, want %q", name, flagName, g, def)
			}
		}
		for flagName := range got {
			if _, ok := want[flagName]; !ok {
				t.Errorf("gem5rtl %s: unexpected flag -%s", name, flagName)
			}
		}
	}
}
