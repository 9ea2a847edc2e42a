# NetDebug build/test/bench entry points.

GO ?= go
BENCH_OUT ?= BENCH_10.json
# BENCH_BASELINE is the committed perf-trajectory file bench-gate
# compares against; bump it when a PR lands a new BENCH_<PR>.json.
BENCH_BASELINE ?= BENCH_10.json
# COVER_MIN pins the global statement coverage the coverage gate
# enforces. This is the only place the floor is written: the CI coverage
# job runs `make cover`.
COVER_MIN ?= 73

.PHONY: all build examples vet test test-race fuzz-smoke fmt-check cover docgate loc bench bench-smoke bench-json bench-gate

all: vet build test

build:
	$(GO) build ./...

# Build-check the example programs (also covered by build, but kept as
# an explicit CI entry point).
examples:
	$(GO) build ./examples/...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Twenty seconds of native fuzzing per testing.F target, starting from
# the seed corpus committed under its package's testdata/fuzz (the CI
# differential-fuzz job runs this). -fuzz takes one package at a time.
# FuzzTernaryStore runs hundreds of checked table operations per input,
# so shrinking each new interesting input for the default minute would
# leave no time to mutate: its minimizer gets a second.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzExtractInject -fuzztime 20s ./internal/bitfield/
	$(GO) test -run '^$$' -fuzz FuzzTernaryStore -fuzztime 20s -fuzzminimizetime 1s ./internal/dataplane/
	$(GO) test -run '^$$' -fuzz FuzzPlanVsInterpreter -fuzztime 20s ./internal/dataplane/

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Global statement coverage with the pinned threshold (the CI gate).
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./cmd/covgate -profile cover.out -min $(COVER_MIN)

# Markdown links, anchors and ```go fences (the CI docs job).
docgate:
	$(GO) run ./cmd/docgate

# The ROADMAP item-3 scoreboard: non-test Go lines outside the benchmark
# module (the figure CHANGES.md records each PR).
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l

# Full benchmark sweep, human-readable.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Quick CI smoke: every benchmark runs, but only a few iterations.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 2x ./...

# Machine-readable results for the perf trajectory (BENCH_<PR>.json).
# Best-of-5 per benchmark: external interference only slows a run, so
# the minimum is the stable statistic (allocs/op keeps the max). The
# pinned hot-path set is then re-measured at the gate's own windows and
# merged over the 200x records, so both sides of bench-gate compare
# minima taken under the same noise regime.
bench-json:
	$(GO) run ./cmd/benchjson -benchtime 200x -count 5 -out $(BENCH_OUT)
	$(GO) run ./cmd/benchjson -bench '$(BENCH_PIN)' -benchtime 2000x -count 5 -merge -out $(BENCH_OUT)
	$(GO) run ./cmd/benchjson -bench '$(BENCH_PIN_SLOW)' -benchtime 30x -count 5 -merge -out $(BENCH_OUT)

# BENCH_PIN selects the gated hot-path benchmarks for the fresh gate
# measurement: a superset of cmd/benchgate's defaultPin, plus the
# linear-scan reference the -speedup assertion divides by and the
# retired DPLL solver the >=5x CDCL assertion divides by. Keep in sync
# with defaultPin when pinning a new backend or subsystem.
BENCH_PIN = Benchmark(ProcessRouter|ProcessFirewallTernary|RouterProcess|FirewallProcess|(Tofino|EBPF|SmartNIC)Process(Router|FirewallTernary)|DeviceForward(Burst|NoCapture)?|SendExternalBurst|TernaryLookup(TupleSpace|Linear)|LPMTrie(Install|Lookup)(Multibit|Binary)|Solve(Reference)?RouterLikePath|SessionThroughput|FuzzFleetThroughput|Checker(Batch|PerFrame))

# BENCH_PIN_SLOW holds pinned benchmarks whose per-op cost (tens of ms
# of whole-program path exploration or multi-device fleet runs) makes
# the 2000x window absurd; they get their own 30x window, on both sides
# of the gate. Includes every ExploreParallel worker count so the
# -speedup 8-worker scaling assertion (enforced on >=8-CPU machines)
# has its operands, and every FleetAggregateMpps device count so the
# 1:8 fleet-scaling assertion has its operands.
BENCH_PIN_SLOW = Benchmark(ExploreParallel|FleetAggregateMpps)

# Regression gate: re-measure the pinned hot paths and compare against
# the committed baseline. Fails on >15% ns/op regression or any
# allocs/op increase on the pinned benchmarks, and asserts the
# tuple-space >= 10x and CDCL >= 5x speedups (plus 8-worker Explore
# scaling on machines with >= 8 CPUs). Only the pinned set is
# re-measured, at a 10x longer window than the trajectory sweep: these
# are sub-µs hot-path loops whose 200x minima wobble with GC state from
# table population, while the suite-scale benchmarks (100ms/op) that
# make a full 2000x sweep prohibitively slow are not gated.
bench-gate:
	$(GO) run ./cmd/benchjson -bench '$(BENCH_PIN)' -benchtime 2000x -count 5 -out bench_current.json
	$(GO) run ./cmd/benchjson -bench '$(BENCH_PIN_SLOW)' -benchtime 30x -count 5 -merge -out bench_current.json
	$(GO) run ./cmd/benchgate -baseline $(BENCH_BASELINE) -current bench_current.json
