# Developer entry points. `make check` is the pre-commit gate: it runs
# exactly what the repo treats as tier-1 (build + tests) plus vet,
# `make multicore` reruns the ordering-sensitive packages at GOMAXPROCS
# 1, 2 and 4, and `make race` covers the packages with lock-free fast
# paths.

GO ?= go

.PHONY: all build test multicore race bench bench-invoke bench-placement fuzz-smoke vet check experiments crash-test migrate-test obs-test store-test des-test

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The transport ordering contract and the rt code that relies on it
# (park/replay, migration FIFO) at several GOMAXPROCS settings:
# reorderings that a single core hides show up here.
multicore:
	$(GO) test -count=1 -cpu 1,2,4 ./internal/rt ./internal/transport

# The fast-path packages (sharded binding cache, lock-slimmed rt,
# pooled transports) plus the durability layer (checkpoint loop vs
# dispatch vs failover) are the ones worth paying the race detector for.
race:
	$(GO) test -race ./internal/binding ./internal/rt ./internal/transport \
		./internal/persist ./internal/magistrate ./internal/sched ./internal/host \
		./internal/obs ./internal/metrics ./internal/debughttp

# Crash-recovery smoke: the chaos/recovery tests and a quick E18 run
# (host failover, churn with checkpoints, full -data-dir restart).
crash-test:
	$(GO) test -race ./internal/persist ./internal/magistrate
	$(GO) test -race -run 'TestCrash|TestRestart|TestHealthDetector' ./internal/core ./internal/sim
	$(GO) run ./cmd/legion-bench -quick -run E18

# Live-migration gauntlet: the FIFO storm (both transports, leak
# tracking on), the magistrate migration/rebalance tests, and a quick
# E19 run (crash injection at every phase boundary + rebalancer).
migrate-test:
	$(GO) test -race -run 'TestMigrationStormFIFO|TestStaleBindingRefreshAfterMigration' ./internal/rt
	$(GO) test -race -tags buftrack -run TestMigrationStormFIFO ./internal/rt
	$(GO) test -race ./internal/sched ./internal/host ./internal/magistrate
	$(GO) run ./cmd/legion-bench -quick -run E19

# Observability plane: the lock-free flight recorder and exemplar
# histograms under the race detector, the debug surface scraped during
# live churn, the wire'd LQL path, and a quick E20 run (five canned
# operator queries against a cluster under migration).
obs-test:
	$(GO) test -race ./internal/obs ./internal/metrics ./internal/debughttp
	$(GO) test -race -run 'TestLiveLQLOverTheWire' ./internal/sim
	$(GO) run ./cmd/legion-bench -quick -run E20

# All microbenchmarks, with allocation counts. The invocation fast
# path (E1 binding + the ParallelInvoke suite) is additionally written
# to BENCH_<date>.json — commit that file with perf-sensitive changes
# so regressions are diffable in review.
BENCH_JSON = BENCH_$(shell date -u +%Y-%m-%d).json
bench:
	$(GO) test -run xxx -bench 'BenchmarkParallelInvoke|BenchmarkE1BindingPath|BenchmarkCheckpointStorm' \
		-benchmem -benchtime=2s . | $(GO) run ./cmd/benchjson > $(BENCH_JSON)
	@echo wrote $(BENCH_JSON)
	$(GO) test -run xxx -bench . -benchmem -benchtime=2s .

# Just the invocation fast path (the §5.2.1 "common case" pipeline).
bench-invoke:
	$(GO) test -run xxx -bench 'BenchmarkParallelInvoke|BenchmarkE1BindingPath' -benchmem -benchtime=2s .

# Placement must not grow with the jurisdiction: one create+activate
# against a standing table of 10^4 objects may cost at most twice what
# it costs against 10^2 (the 10^5 row is printed for information).
bench-placement:
	$(GO) test -run '^$$' -bench '^BenchmarkActivateAtScale$$' -benchtime 2000x ./internal/magistrate | awk '\
		{ print } \
		/objs=1e2-/ { lo = $$3 } \
		/objs=1e4-/ { hi = $$3 } \
		END { \
			if (lo == 0 || hi == 0) { print "FAIL: BenchmarkActivateAtScale rows missing"; exit 1 } \
			if (hi > 2 * lo) { printf "FAIL: create+activate %d ns/op at 1e4 objects > 2x %d ns/op at 1e2\n", hi, lo; exit 1 } \
			printf "ok: create+activate 1e4/1e2 = %.2fx (gate 2x)\n", hi / lo }'

# Storage engine gauntlet: the fault-injected recovery matrix (torn
# writes, fsync errors, crash tails, mid-compaction crashes) and the
# backend conformance suite under the race detector, then the chaos
# tests driven over the segment backend, and a quick E21 run.
store-test:
	$(GO) test -race -run 'TestSegment|TestBackendConformance|TestFileStoreDirSync' ./internal/persist
	$(GO) test -race -run 'TestCrash|TestRestart' ./internal/core ./internal/sim
	$(GO) run ./cmd/legion-bench -quick -run E21

# Discrete-event scale harness: the clock seam and virtual clock under
# the race detector, the deterministic-replay guarantee (same seed →
# byte-identical event logs), and a quick E22 run (10^4-object knee
# ladders). The full 10^6-object sweep is `legion-bench -run E22`.
des-test:
	$(GO) test -race ./internal/clock ./internal/des
	$(GO) test -race -run 'TestReplayDeterminism|TestBreakerVirtualClock' ./internal/des ./internal/health
	$(GO) run ./cmd/legion-bench -quick -run E22

# Short fuzz pass over the wire decoder (v4 frames) and the
# segment-record/snapshot codec: enough to catch a freshly introduced
# parser panic without tying up CI.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzParseFrame -fuzztime 15s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzSegmentRecord -fuzztime 15s ./internal/persist

vet:
	$(GO) vet ./...

check: build vet test multicore race

# The EXPERIMENTS.md harness (full scale; add ARGS=-quick for a fast pass).
experiments:
	$(GO) run ./cmd/legion-bench $(ARGS)
