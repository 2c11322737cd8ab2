# gem5rtl build/test entry points; see PERFORMANCE.md.

GO ?= go

.PHONY: all build test bench-smoke doccheck

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Three short ledger runs whose golden-tick checks cover the PMU co-simulation
# path, the contended DRAM request queue and the RTLObject DMA exchange at
# full scale end to end (bench/README.md); timings are printed, only
# correctness fails the target.
bench-smoke:
	$(GO) run ./bench --workload pmu-cosim --seconds 2
	$(GO) run ./bench --workload dse-grid --seconds 2
	$(GO) run ./bench --workload nvdla-cosim --seconds 2

# Enforce godoc comments on every exported symbol of the kernel packages,
# then audit that every command-line flag the binaries register is documented
# in the user-facing docs (see cmd/doccheck -flags).
doccheck:
	$(GO) run ./cmd/doccheck ./internal/sim ./internal/port ./internal/sweepd ./internal/rtlc ./internal/prof \
		./internal/rtlobject ./internal/nvdla
	$(GO) run ./cmd/doccheck -flags README.md,EXPERIMENTS.md,PERFORMANCE.md \
		./cmd/gem5rtl ./cmd/nvdla-dse ./cmd/rtlsim ./cmd/pmurun \
		./cmd/sweepd ./cmd/sweepctl ./cmd/faultcamp ./cmd/overhead
