GO ?= go

# Benchmarks added with the in-place write path / sharded pool PR; see
# docs/PERF.md for methodology and recorded baselines.
BENCHES = BenchmarkInsert|BenchmarkBuildAll|BenchmarkConcurrentQuery

# Short-budget fuzz smoke for CI (full runs: go test -fuzz=... by hand).
FUZZTIME ?= 10s

.PHONY: all build vet test race race-plan fuzz ci bench bench1 bench2 bench3 bench4 bench5 bench6 bench7 bench8 bench-faults

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
# lotteries, and a second draw is cheap.
race:
	$(GO) test -race -count=2 .
	$(GO) test -race ./internal/...

# Shared-plan hot path under the race detector with forced scheduling
# parallelism: the batched executor's concurrent cached-plan tests must
# stay clean when goroutines genuinely interleave (GOMAXPROCS=4 even on
# smaller CI hosts).
race-plan:
	GOMAXPROCS=4 $(GO) test -race ./internal/plan/ ./internal/engine/

# Fuzz smoke: each target for a short budget, plus the checked-in
# corpora which already run as part of `go test`.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeAgreement -fuzztime $(FUZZTIME) ./internal/idlist/
	$(GO) test -run '^$$' -fuzz FuzzEncodeRoundTrip -fuzztime $(FUZZTIME) ./internal/idlist/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/xpath/

# Everything CI runs, in order.
ci: test race race-plan fuzz

# Machine-readable trajectory entries at the repo root.
bench: bench1 bench2 bench3 bench4 bench5 bench6 bench7 bench8

# Micro-benchmarks with allocation reporting -> BENCH_1.json.
bench1:
	$(GO) test -run '^$$' -bench '$(BENCHES)' -benchmem -json ./internal/btree/ | tee BENCH_1.json

# Concurrent-session throughput (serial vs 8 sessions, memory- and
# disk-resident regimes) -> BENCH_2.json.
bench2:
	$(GO) run ./cmd/twigbench -parallel -out BENCH_2.json

# File-backed storage: build/close/reopen + cold-cache query regimes
# (in-memory vs file-backed vs simulated-latency) -> BENCH_3.json.
bench3:
	$(GO) run ./cmd/twigbench -file -out BENCH_3.json

# Cost-based-planner regret: chosen-plan latency vs the best pinned
# strategy per workload query (see docs/PLANNER.md) -> BENCH_4.json.
bench4:
	$(GO) run ./cmd/twigbench -planner -out BENCH_4.json

# Mixed read/write workload: reader p50 under a continuous writer vs the
# read-only baseline (snapshot isolation), plus fsyncs per committed
# update with 1 vs 4 writers (WAL group commit) -> BENCH_5.json.
bench5:
	$(GO) run ./cmd/twigbench -mixed -out BENCH_5.json

# Multicore scaling: the XMark stream with GOMAXPROCS = sessions swept
# over 1/2/4/8 cores, memory- and disk-resident regimes; the JSON records
# cpus_online — points beyond it are time-sliced, not parallel ->
# BENCH_6.json.
bench6:
	$(GO) run ./cmd/twigbench -multicore -out BENCH_6.json

# Disk-resident scale: XMark scale 10 through a buffer pool far smaller
# than the file — cold/warm query latency, steady-state file size under
# churn, and commit p99 with the background checkpointer parked vs
# active -> BENCH_7.json.
bench7:
	$(GO) run ./cmd/twigbench -scale10 -out BENCH_7.json

# Optimistic multi-statement transactions: committed-tx throughput and
# fsync amortisation over a 1/2/4 disjoint-writer sweep, plus the
# contended-document conflict/retry economics -> BENCH_8.json.
bench8:
	$(GO) run ./cmd/twigbench -txn -out BENCH_8.json

# Fault-injection smoke: the XMark workload under armed storage faults,
# differential-checked; fails on any wrong answer or untyped error ->
# FAULTS.json (see docs/FAULTS.md).
bench-faults:
	$(GO) run ./cmd/twigbench -faults -out FAULTS.json
