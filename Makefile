# NetDebug build/test/bench entry points.

GO ?= go
# COVER_MIN pins the global statement coverage the coverage gate
# enforces. This is the only place the floor is written: the CI coverage
# job runs `make cover`.
COVER_MIN ?= 78
# PRODCOVER_MAX is the most functions `make prodcover` may list as run by
# no shipped entry point; the CI vet job runs it. Lower it as they go.
PRODCOVER_MAX ?= 197

.PHONY: all build examples vet test test-race fuzz-smoke fmt-check cover docgate loc prodcover figure2-golden examples-golden bench bench-smoke bench-compare scale-trial

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
# and FuzzParseStream starts from multi-kilobyte recorded streams, so
# shrinking each new interesting input for the default minute would
# leave no time to mutate: their minimizers get a second, and so do
# FuzzEntryCodec's and FuzzCtxScopes' (whose every Check also runs the
# reference DPLL), so that their twenty seconds go to mutation as well.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzExtractInject -fuzztime 20s ./internal/bitfield/
	$(GO) test -run '^$$' -fuzz FuzzTernaryStore -fuzztime 20s -fuzzminimizetime 1s ./internal/dataplane/
	$(GO) test -run '^$$' -fuzz FuzzLPMStore -fuzztime 20s ./internal/dataplane/
	$(GO) test -run '^$$' -fuzz FuzzPlanVsInterpreter -fuzztime 20s ./internal/dataplane/
	$(GO) test -run '^$$' -fuzz FuzzFixIPv4Checksum -fuzztime 20s ./internal/packet/
	$(GO) test -run '^$$' -fuzz FuzzOperatorConformance -fuzztime 20s ./internal/verify/
	$(GO) test -run '^$$' -fuzz FuzzCtxScopes -fuzztime 20s -fuzzminimizetime 1s ./internal/verify/solver/
	$(GO) test -run '^$$' -fuzz FuzzGeneratorFrame -fuzztime 20s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzServe -fuzztime 20s ./internal/control/
	$(GO) test -run '^$$' -fuzz FuzzClient -fuzztime 20s ./internal/control/
	$(GO) test -run '^$$' -fuzz FuzzEntryCodec -fuzztime 20s -fuzzminimizetime 1s ./internal/control/
	$(GO) test -run '^$$' -fuzz FuzzParseStream -fuzztime 20s -fuzzminimizetime 1s ./internal/session/

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Global statement coverage with the pinned threshold (the CI gate).
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./cmd/covgate -profile cover.out -min $(COVER_MIN)

# Markdown links, anchors and ```go fences (the CI docs job).
docgate:
	$(GO) run ./cmd/docgate

# The ROADMAP item-7 scoreboard: non-test Go lines outside the benchmark
# module (the figure CHANGES.md records each PR).
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l

# What no shipped entry point runs: every cmd/* and examples/* program
# and the benchmark are built with coverage of the whole module, run
# through their CI smoke invocations (p4c also with -resources; the
# benchmark for a second at -trace 0 and -trace 1), and the functions
# left at 0.0% go to prodcover.txt. A binary that never runs writes no
# coverage at all, so each runs once. The target fails when the list is
# longer than PRODCOVER_MAX.
# The evidence behind a "no production caller" claim.
prodcover:
	@set -e; \
	tmp="$$(mktemp -d)"; \
	trap 'rm -rf "$$tmp"' EXIT; \
	b="$$tmp/bin"; mkdir "$$b" "$$tmp/cov"; \
	for m in cmd/*/main.go examples/*/main.go; do \
		d="$$(dirname $$m)"; \
		$(GO) build -cover -coverpkg=netdebug/... -o "$$b/$$(basename $$d)" ./$$d; \
	done; \
	$(GO) build -C benchmark -cover -coverpkg=netdebug/... -o "$$b/benchmark" .; \
	export GOCOVERDIR="$$tmp/cov"; \
	for e in quickstart rejectbug comparison perftest; do "$$b/$$e" > /dev/null; done; \
	"$$b/figures" -details > /dev/null; \
	"$$b/netdebug" -program examples/router.p4 -resident -batches 1 -record "$$tmp/run.jsonl" > /dev/null || test $$? -eq 1; \
	"$$b/netdebug" -replay "$$tmp/run.jsonl" > /dev/null; \
	"$$b/netdebug" -program examples/router.p4 -fuzz -fuzz-budget 768 > /dev/null; \
	"$$b/netdebug" -program examples/router.p4 -suite reject > /dev/null; \
	"$$b/docgate" > /dev/null; \
	"$$b/p4c" -target sdnet -resources examples/router.p4 > /dev/null; \
	"$$b/p4c" -verify examples/router.p4 > /dev/null; \
	for t in 0 1; do "$$b/benchmark" -seconds 1 -trace $$t -out "$$tmp/bench.json" > /dev/null; done; \
	$(GO) tool covdata textfmt -i "$$tmp/cov" -o "$$tmp/prof.txt"; \
	"$$b/covgate" -profile "$$tmp/prof.txt" 2> /dev/null; \
	$(GO) tool covdata textfmt -i "$$tmp/cov" -o "$$tmp/prof.txt"; \
	grep -v '^netdebug/benchmark/' "$$tmp/prof.txt" > "$$tmp/root.txt"; \
	$(GO) tool cover -func "$$tmp/root.txt" | grep '[[:space:]]0\.0%$$' > prodcover.txt || true; \
	cat prodcover.txt; \
	n=$$(wc -l < prodcover.txt); \
	echo "prodcover: $$n functions no shipped entry point runs (prodcover.txt)"; \
	if [ "$$n" -gt $(PRODCOVER_MAX) ]; then echo "prodcover: $$n > PRODCOVER_MAX $(PRODCOVER_MAX)"; exit 1; fi

# Regenerate the Figure 2 golden after a deliberate change: the file's
# three header lines, then what the CLI prints. The CLI's output lands in
# a file first, so a failing build leaves the golden untouched.
# TestFigure2Matrix holds the in-package run to these bytes; the CI vet
# job reruns this target and diffs, which holds cmd/figures to them too.
FIGURE2_GOLDEN := internal/scenario/testdata/figure2.golden
figure2-golden:
	$(GO) run ./cmd/figures -details > figure2.out && \
	(head -n 3 $(FIGURE2_GOLDEN); cat figure2.out) > figure2.new && \
	mv figure2.new $(FIGURE2_GOLDEN); s=$$?; rm -f figure2.out figure2.new; exit $$s

# Regenerate the four examples' output goldens after a deliberate
# change. Each example's output lands in a file first, so a failing run
# leaves its golden untouched. The CI vet job reruns this target and
# diffs, which holds the examples' output to these bytes.
EXAMPLES_GOLDEN := quickstart perftest comparison rejectbug
examples-golden:
	@for e in $(EXAMPLES_GOLDEN); do \
		f=examples/testdata/$$e; \
		$(GO) run ./examples/$$e > $$f.out && mv $$f.out $$f.golden || { rm -f $$f.out; exit 1; }; \
	done

# The parallel paths' scaling trial (docs/scaling.md "Parallel paths on
# trial"): each surviving host worker pool's benchmarks ten times at 1
# and 2 P. A pool earns its code while its 2-worker run at -cpu 2 is at
# least 1.5x its 1-worker run. -p 1 keeps the two packages' benchmarks
# from running at once. About three minutes.
scale-trial:
	$(GO) test -p 1 -run '^$$' -bench 'Figure2CapabilityMatrix|ExploreParallel' -cpu 1,2 -count 10 . ./internal/verify/

# Full benchmark sweep, human-readable.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Quick CI smoke: every benchmark runs, but only a few iterations.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 2x ./...

# The regression gate (docs/scaling.md "The regression gate"): the one
# benchmark (BENCHMARK.json, benchmark/README.md) run four times on
# $(BASE) and four times on this tree at its own defaults, the side that
# goes first alternating, then judged by its own -compare against the
# bounds in BENCHMARK.json. Four runs a side is the fewest for which
# -compare computes a spread, so "unresolved" can be told from "worse".
# BASE is a git ref, checked out as a detached worktree in a temporary
# directory that is removed on exit, failure included: HEAD judges the
# working tree against its last commit; CI passes HEAD^, the merge
# commit's first parent. About 12 minutes.
BASE ?= HEAD
bench-compare:
	@set -e; \
	out="$(CURDIR)/benchmark/out"; \
	tmp="$$(mktemp -d)"; \
	trap 'rm -rf "$$tmp"; git worktree prune' EXIT; \
	trap 'exit 130' INT TERM; \
	git worktree add --quiet --detach "$$tmp/base" $(BASE); \
	rm -f "$$out/base.json" "$$out/new.json"; \
	for pair in "base new" "new base" "base new" "new base"; do \
		for side in $$pair; do \
			if [ $$side = base ]; then src="$$tmp/base"; else src="$(CURDIR)"; fi; \
			$(GO) run -C "$$src/benchmark" netdebug/benchmark -out "$$out/$$side.json"; \
		done; \
	done; \
	$(GO) run -C benchmark netdebug/benchmark -compare out/base.json out/new.json
