# NetDebug build/test/bench entry points.

GO ?= go
# COVER_MIN pins the global statement coverage the coverage gate
# enforces. This is the only place the floor is written: the CI coverage
# job runs `make cover`.
COVER_MIN ?= 78

.PHONY: all build examples vet test test-race fuzz-smoke fmt-check cover docgate loc figure2-golden bench bench-smoke bench-compare

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
	$(GO) test -run '^$$' -fuzz FuzzFixIPv4Checksum -fuzztime 20s ./internal/packet/

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

# Regenerate the Figure 2 golden after a deliberate change: the file's
# three header lines, then what the CLI prints below its own heading.
# TestFigure2Matrix holds the in-package run to these bytes; the CI vet
# job reruns this target and diffs, which holds cmd/figures to them too.
FIGURE2_GOLDEN := internal/scenario/testdata/figure2.golden
figure2-golden:
	(head -n 3 $(FIGURE2_GOLDEN); $(GO) run ./cmd/figures -figure 2 -details | tail -n +4) > f && mv f $(FIGURE2_GOLDEN)

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
