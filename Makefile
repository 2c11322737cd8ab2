# gem5rtl build/test entry points; see PERFORMANCE.md.

GO ?= go

.PHONY: all build test bench-smoke doccheck goldens mutants

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Four short ledger runs whose golden-tick checks cover the PMU co-simulation
# path with and without its waveform, the contended DRAM request queue and the
# RTLObject DMA exchange at full scale end to end (bench/README.md); timings
# are printed, only correctness fails the target.
bench-smoke:
	$(GO) run ./bench --workload pmu-cosim --seconds 2
	$(GO) run ./bench --workload pmu-waveform --seconds 2
	$(GO) run ./bench --workload dse-grid --seconds 2
	$(GO) run ./bench --workload nvdla-cosim --seconds 2

# Enforce godoc comments on every exported symbol of the kernel packages,
# then audit that every command-line flag gem5rtl registers is documented in
# the user-facing docs (doc_test.go).
doccheck:
	$(GO) test -count=1 -run '^TestDocs' .

# Rewrite the golden files the tests compare against from the current tree:
# the kernel grid's state hashes, the PMU trace and the stats baseline. Review
# the diff before committing it. testdata/run_golden.json pins outputs of
# wrappers that no longer exist, so nothing rewrites it.
goldens:
	$(GO) test -count=1 -run '^TestKernelGoldenStateHash$$' ./internal/experiments -update
	$(GO) test -count=1 -run '^TestTraceGoldenPMUFirst1000Ticks$$' ./internal/soc -update
	$(GO) test -count=1 -run '^TestStatsBaseline$$' ./cmd/gem5rtl -update

# Plant each fault of internal/conform/testdata/mutants.json alone in a copy
# of the tree and require every test its row names to fail there.
mutants:
	$(GO) test -count=1 -tags mutants -run '^TestMutants$$' -timeout 60m -v ./internal/conform
