GO ?= go

# Short-budget fuzz smoke for CI (full runs: go test -fuzz=... by hand).
FUZZTIME ?= 10s

.PHONY: all build vet test race fuzz examples ci bench paper loc

all: test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Tier-1 verification flow: build, vet, full test suite — then the same
# for the benchmark, which is its own module (benchmark/go.mod): the root
# `./...` does not compile its layer probes (benchmark/layers.go), the one
# place outside this module that calls plan and engine entry points.
test: build vet
	$(GO) test ./...
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Full suite under the race detector: concurrent sessions, the differential
# harness, crash/fault/compaction tortures, the transaction suite and the
# observability guards all run here — there are no per-subsystem -run
# targets whose test-name lists could rot. The root package runs twice: its
# reader/writer and serialization-anomaly stress tests are scheduling
# lotteries, and a second draw is cheap. GOMAXPROCS=4 even on smaller CI
# hosts, so goroutines sharing one cached plan tree or one memoised parsed
# pattern genuinely interleave. The index builds run five more times: their
# prepares run side by side, and each draw interleaves them anew.
race:
	GOMAXPROCS=4 $(GO) test -race -count=2 .
	GOMAXPROCS=4 $(GO) test -race ./internal/...
	GOMAXPROCS=4 $(GO) test -race -count=5 -run 'Build' ./internal/engine ./internal/index

# Fuzz smoke: each target for a short budget, plus the checked-in
# corpora which already run as part of `go test`.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeAgreement -fuzztime $(FUZZTIME) ./internal/idlist/
	$(GO) test -run '^$$' -fuzz FuzzEncodeRoundTrip -fuzztime $(FUZZTIME) ./internal/idlist/
	$(GO) test -run '^$$' -fuzz FuzzScanPrefix -fuzztime $(FUZZTIME) ./internal/btree/
	$(GO) test -run '^$$' -fuzz FuzzTreeOps -fuzztime $(FUZZTIME) ./internal/btree/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/xpath/
	$(GO) test -run '^$$' -fuzz FuzzDistinct -fuzztime $(FUZZTIME) ./internal/plan/
	$(GO) test -run '^$$' -fuzz FuzzDecodeCatalog -fuzztime $(FUZZTIME) ./internal/engine/
	$(GO) test -run '^$$' -fuzz FuzzNodeTable -fuzztime $(FUZZTIME) ./internal/engine/
	$(GO) test -run '^$$' -fuzz FuzzDecodeTxRecord -fuzztime $(FUZZTIME) ./internal/engine/
	$(GO) test -run '^$$' -fuzz FuzzStoreCOW -fuzztime $(FUZZTIME) ./internal/xmldb/
	$(GO) test -run '^$$' -fuzz FuzzRecoverFreeList -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzOpenFileDisk -fuzztime $(FUZZTIME) ./internal/storage/

# Every program under examples/, run: each must exit 0. examples/persist
# runs twice against one temporary file, so its build and its reopen plus
# logged insert cross a real process restart; the first run must print
# "building" and the second "reopened". Nothing is left behind.
examples:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	for d in examples/*/; do \
		[ "$$d" = examples/persist/ ] && continue; \
		echo "== $$d"; $(GO) run "./$$d" >"$$dir/out" || { cat "$$dir/out"; exit 1; }; \
	done; \
	for run in building reopened; do \
		echo "== examples/persist ($$run)"; \
		$(GO) run ./examples/persist "$$dir/books.twigdb" >"$$dir/out" || { cat "$$dir/out"; exit 1; }; \
		grep -q "^$$run " "$$dir/out" || { cat "$$dir/out"; exit 1; }; \
	done

# Everything CI runs, in order; the size figures last, so every run logs
# them.
ci: test race fuzz examples loc

# The four benchmark workloads, untraced, as the driver runs them: one JSON
# object of end-to-end metrics per workload on standard output, tables on
# standard error (benchmark/README.md; add --trace 1 for the per-layer run).
bench:
	bash benchmark/run.sh --workload twig-hot --seed 1 --seconds 15 --trace 0
	bash benchmark/run.sh --workload twig-cold --seed 1 --seconds 15 --trace 0
	bash benchmark/run.sh --workload commit-durable --seed 1 --seconds 15 --trace 0
	bash benchmark/run.sh --workload mixed-txn --seed 1 --seconds 15 --trace 0

# The paper's Section 5 tables and figures as text (docs/PERF.md).
paper:
	$(GO) run ./cmd/twigbench -exp all

# Go lines outside benchmark/, product and test apart: the size figures
# ROADMAP aim 2 (item 14) tracks, from a target rather than from a shell
# history.
loc:
	@printf 'product %s\n' "$$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l)"
	@printf 'test    %s\n' "$$(find . -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l)"
