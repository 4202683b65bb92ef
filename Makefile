GO ?= go
FUZZTIME ?= 30s

# Pinned versions of the external analyzers `make lint` runs when they
# are installed (CI installs exactly these; offline dev environments
# skip them with a notice — dexvet itself always runs, it needs nothing
# beyond the repo).
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test test-race vet fmt lint check bench bench-graph bench-core bench-json bench-diff profile-churn fuzz fuzz-churn fuzz-derived fuzz-graph fuzz-store fuzz-crash fuzz-flood sim sim-scale dht experiments

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race gate over the whole module. The concurrency hot spots (the
# dex.Concurrent façade and its async event dispatcher, persistence)
# are where races have actually lived, but the full sweep costs little
# on top and has no blind spots.
test-race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Static-analysis gate, required in CI: dexvet mechanizes the repo's
# own invariants (guard discipline, engine determinism, 0-alloc hot
# paths — see cmd/dexvet and internal/analysis);
# staticcheck and govulncheck run at the pinned versions when
# installed. Zero unannotated findings is the merge bar: fix the code
# or annotate the site with //dexvet:allow <rule> <reason>.
lint:
	$(GO) run ./cmd/dexvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed — skipped (CI pins $(STATICCHECK_VERSION))"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed — skipped (CI pins $(GOVULNCHECK_VERSION))"; \
	fi

check: build vet fmt lint test

bench:
	$(GO) test -bench . -benchtime 200x -run '^$$' .

# Substrate micro-benchmarks: walk-hop and edge-churn cost on the flat
# adjacency arena vs the map-of-maps Ref baseline (BenchmarkWalkHop must
# report 0 allocs/op), and one run probe (findNbr) at degrees 4, 32 and
# 256.
bench-graph:
	$(GO) test ./internal/graph -run '^$$' -bench 'WalkHop|GraphChurn|FindNbr' -benchtime 100000x

# Engine-state benchmarks + alloc gates: one steady-state recovery op
# (delete+insert) at 10^5 nodes on the slot-indexed store, the same
# pair on the network the workloads grow by single joins with the
# sampled audit off and on (the gap is the audit's cost per pair), the
# engine halves of a checkpoint and of a reopen (AppendState,
# RestoreNetwork) on that network, the zero-allocation gates on the
# recovery path, the sampled audit and the warm size-count flood
# (mirrors bench-graph one layer up), one Simplified-mode size-count
# flood at n=1024 in its direct form vs the message-passing engine it
# is proven equal to, and the Concurrent façade's throughput rows
# (1/4/8/16 submitters through its lock).
bench-core:
	$(GO) test ./internal/core ./internal/congest -run 'ZeroAllocs' -count 1 -v
	$(GO) test ./internal/core -run '^$$' -bench 'RecoveryOp|ChurnAudit' -benchtime 2000x -timeout 20m
	$(GO) test ./internal/core -run '^$$' -bench 'AppendState|RestoreNetwork' -benchtime 20x -benchmem -timeout 20m
	$(GO) test ./internal/congest -run '^$$' -bench FloodAggregate -benchtime 200x -benchmem
	$(GO) test . -run '^$$' -bench ConcurrentChurn -benchtime 300x -timeout 20m

# Machine-readable benchmark baselines: re-run the hot-path benchmarks
# with -benchmem and emit BENCH_core.json / BENCH_graph.json via
# cmd/benchjson, which reads ns/op, B/op and allocs/op wherever they sit
# on the line (rows that report custom metrics put them in between).
# CI diffs fresh runs against the committed files via
# cmd/benchdiff (see bench-diff below). The core and persist packages
# run in separate invocations — `go test p1 p2` runs the two test
# binaries concurrently, and the contention skews the gated
# RecoveryOp row by 20%+. The graph rows use a 2M-iteration window
# (at ~200ns/op, 100000x is a 20ms sample and pure scheduler noise),
# and every gated row is the fastest of several reruns — benchjson
# keeps the minimum per name, the noise-robust statistic on a host with
# steal (the recovery-op row takes 6: measured steal bursts run 2-3
# samples long, so 3 reruns can miss the floor entirely).
bench-json:
	$(GO) test ./internal/core -run '^$$' \
		-bench 'RecoveryOp/dense' -benchtime 200x -benchmem -count 6 -timeout 20m \
		| $(GO) run ./cmd/benchjson > BENCH_core.json
	$(GO) test ./internal/core -run '^$$' \
		-bench 'ChurnAudit' -benchtime 2000x -benchmem -count 3 -timeout 20m \
		| $(GO) run ./cmd/benchjson -append BENCH_core.json
	$(GO) test ./internal/core -run '^$$' \
		-bench 'AppendState|RestoreNetwork' -benchtime 20x -benchmem -count 3 -timeout 20m \
		| $(GO) run ./cmd/benchjson -append BENCH_core.json
	$(GO) test ./internal/persist -run '^$$' \
		-bench 'WALAppend|Checkpoint' -benchtime 200x -benchmem -timeout 20m \
		| $(GO) run ./cmd/benchjson -append BENCH_core.json
	$(GO) test . -run '^$$' \
		-bench 'ConcurrentChurn' -benchtime 300x -benchmem -timeout 20m \
		| $(GO) run ./cmd/benchjson -append BENCH_core.json
	$(GO) test ./internal/congest -run '^$$' \
		-bench 'FloodAggregate/direct' -benchtime 2000x -benchmem -count 6 \
		| $(GO) run ./cmd/benchjson -append BENCH_core.json
	$(GO) test ./internal/graph -run '^$$' \
		-bench 'WalkHop|GraphChurn' -benchtime 2000000x -benchmem -count 3 \
		| $(GO) run ./cmd/benchjson > BENCH_graph.json

# Thresholded benchmark ratchet: regenerate fresh measurements and diff
# them against the committed baselines. The walk-hop, graph-churn,
# recovery-op, serialized-churn, and direct-flood rows fail on >10% ns/op
# drift or any allocs/op increase; all other rows are report-only
# (runner noise makes a blanket hard gate hostile).
bench-diff:
	$(GO) test ./internal/core -run '^$$' \
		-bench 'RecoveryOp/dense' -benchtime 200x -benchmem -count 6 -timeout 20m \
		| $(GO) run ./cmd/benchjson > /tmp/bench_core_fresh.json
	$(GO) test ./internal/core -run '^$$' \
		-bench 'ChurnAudit' -benchtime 2000x -benchmem -count 3 -timeout 20m \
		| $(GO) run ./cmd/benchjson -append /tmp/bench_core_fresh.json
	$(GO) test ./internal/core -run '^$$' \
		-bench 'AppendState|RestoreNetwork' -benchtime 20x -benchmem -count 3 -timeout 20m \
		| $(GO) run ./cmd/benchjson -append /tmp/bench_core_fresh.json
	$(GO) test ./internal/persist -run '^$$' \
		-bench 'WALAppend|Checkpoint' -benchtime 200x -benchmem -timeout 20m \
		| $(GO) run ./cmd/benchjson -append /tmp/bench_core_fresh.json
	$(GO) test . -run '^$$' \
		-bench 'ConcurrentChurn' -benchtime 300x -benchmem -timeout 20m \
		| $(GO) run ./cmd/benchjson -append /tmp/bench_core_fresh.json
	$(GO) test ./internal/congest -run '^$$' \
		-bench 'FloodAggregate/direct' -benchtime 2000x -benchmem -count 6 \
		| $(GO) run ./cmd/benchjson -append /tmp/bench_core_fresh.json
	$(GO) test ./internal/graph -run '^$$' \
		-bench 'WalkHop|GraphChurn' -benchtime 2000000x -benchmem -count 3 \
		| $(GO) run ./cmd/benchjson > /tmp/bench_graph_fresh.json
	$(GO) run ./cmd/benchdiff -baseline BENCH_core.json -fresh /tmp/bench_core_fresh.json \
		-gate 'BenchmarkRecoveryOp/dense/n=100000,BenchmarkConcurrentChurn/serialized/c=1,BenchmarkFloodAggregate/direct/n=1024'
	$(GO) run ./cmd/benchdiff -baseline BENCH_graph.json -fresh /tmp/bench_graph_fresh.json \
		-gate 'BenchmarkWalkHop,BenchmarkGraphChurn'

# Churn-window profiling: a CPU profile of the engine's steady-state
# churn on the network the workloads run — BenchmarkChurnAudit's off
# row on joinedEngine, 10^5 nodes grown by single joins — taken by the
# test-only -churnprofile flag around the timed loop alone, so set-up
# is not in it. The artifact lands in profiles/ (the directory is
# committed, its contents are git-ignored); inspect with
# `go tool pprof profiles/churn_cpu.pprof`. CI runs this with
# PROFILE_BENCHTIME=20x and PROFILE_FLAGS=-short purely as a
# does-the-target-still-build-and-run smoke, so the profiling recipe
# cannot rot.
PROFILE_BENCHTIME ?= 200000x
PROFILE_FLAGS ?=

profile-churn:
	@mkdir -p profiles
	$(GO) test ./internal/core -run '^$$' -bench 'ChurnAudit/off/n=100000' \
		-benchtime $(PROFILE_BENCHTIME) -timeout 20m $(PROFILE_FLAGS) \
		-churnprofile $(CURDIR)/profiles/churn_cpu.pprof

# Differential fuzzing, one target per oracle tier: FuzzChurnTrace
# replays decoded operation traces under the incremental-vs-full-rebuild
# oracle plus the exhaustive invariant check; FuzzDerivedChurn replays
# single inserts and deletes on a Staggered network observed only by an
# edge observer, the derived-read regime a durable evented façade runs,
# checking the edge events against the rebuild; FuzzGraphOps replays graph
# mutation sequences against the map-of-maps Ref oracle (swap-safety for
# the flat adjacency arena); FuzzStoreOps replays engine-store operation
# sequences against the map-keyed storeModel (the same for the
# slot-indexed state store); FuzzCrashRecovery kills persistent runs at
# arbitrary points (including torn/corrupted WAL tails) and demands the
# recovered network match a fresh oracle run of the surviving prefix;
# FuzzFloodAggregate decodes graph-op sequences (self-loops,
# multi-edges, recycled slots, several components) and demands the
# direct size-count flood report the message-passing PIF execution's
# Sum, Count, Rounds and Messages exactly.
fuzz: fuzz-churn fuzz-derived fuzz-graph fuzz-store fuzz-crash fuzz-flood

fuzz-churn:
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzChurnTrace -fuzztime $(FUZZTIME)

fuzz-derived:
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzDerivedChurn -fuzztime $(FUZZTIME)

fuzz-graph:
	$(GO) test ./internal/graph -run '^$$' -fuzz FuzzGraphOps -fuzztime $(FUZZTIME)

# Minimization is capped at 10 calls per input: at the default 60 s
# budget the fuzzer spends most of a short run minimizing the large
# corpus entries' descendants and executes almost nothing new.
fuzz-store:
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzStoreOps -fuzztime $(FUZZTIME) -fuzzminimizetime 10x

fuzz-crash:
	$(GO) test ./internal/persist -run '^$$' -fuzz FuzzCrashRecovery -fuzztime $(FUZZTIME)

fuzz-flood:
	$(GO) test ./internal/congest -run '^$$' -fuzz FuzzFloodAggregate -fuzztime $(FUZZTIME)

sim:
	$(GO) run ./cmd/dexsim -n0 128 -steps 1000 -adversary random -gap-every 100

# Scale demonstration: grow past 10^5 nodes with the o(n) sampled audit
# verifying every step (use -steps 1000000 for the 10^6-node run).
sim-scale:
	$(GO) run ./cmd/dexsim -n0 8192 -steps 100000 -pinsert 1.0 -adversary insert -gap-every 0 -audit sampled

dht:
	$(GO) run ./cmd/dexdht -n0 64 -keys 1000 -churn 500

experiments:
	$(GO) run ./cmd/dexbench -exp all
