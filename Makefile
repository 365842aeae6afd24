GO ?= go

.PHONY: build vet lint test race bench bench-smoke serve-smoke crash-smoke metrics-smoke chaos-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# go vet plus prismvet (cmd/prismvet), the repo's own analyzer suite for the
# conventions the compiler can't check: *Locked call discipline, refcount and
# epoch pairing, WAL/slab ordering, COW publication, shadowed-error drops.
# Zero unannotated diagnostics is the bar; see internal/analysis/doc.go for
# the invariant catalog and the //prismvet:ignore contract.
lint:
	./scripts/lint.sh

# lint (vet + prismvet) + unit tests (includes the wire-path malformed-RESP
# table) + a -race
# pass over the scan-stress, parallel-driver, concurrent-pipelined-client,
# async-compaction, lock-free-read, and write-queue tests (the paths with
# cross-goroutine iterators, epoch pins, shared devices, one server serving
# many connections, background merge commits racing put/get/scan/close,
# lock-free GETs racing all of the above plus Close, and the owner-queue
# write path: 8 producers × SET/DEL/MSET racing lock-free GETs, an open
# iterator, an async compaction commit, and Close), plus the durability
# tests (WAL group commit, crash recovery, fault injection) under -race —
# the group-commit flusher and WaitDurable waiters are cross-goroutine.
test: lint
	$(GO) test ./...
	$(GO) test -race -run 'ConcurrentScansUnderWrites|ConcurrentOpsAcrossPartitions|ParallelScanAccounting' ./internal/core/ ./bench/
	$(GO) test -race -run 'AsyncConcurrentOpsRaceMergeCommit|AsyncCloseRacesMergeCommit|AsyncModelBasedChurn' ./internal/core/
	$(GO) test -count=50 -run 'AsyncConcurrentOpsRaceMergeCommit$$' ./internal/core/
	$(GO) test -race -run 'LockFreeGetRacesMutators' ./internal/core/
	$(GO) test -race -run 'WriteQueueRacesMutators' ./internal/core/
	$(GO) test -race -run 'SnapshotConcurrentReads' ./internal/btree/
	$(GO) test -race -run 'ConcurrentPipelinedClients|GracefulShutdown' ./internal/server/
	$(GO) test -race -run 'Durable' ./internal/core/
	$(GO) test -race ./internal/storage/

# Race-detector pass over the packages with lock-free or multi-goroutine
# paths (manifest snapshots, read views and the COW B-tree, iterator epoch
# pins, parallel partition driver, shared devices, the network server).
race:
	$(GO) test -race ./internal/core/ ./internal/btree/ ./internal/sst/ ./internal/simdev/ ./internal/server/ ./internal/storage/ ./bench/

# Starts prismserver on loopback, drives a short pipelined prismload burst
# against it, and verifies the generator's issued op counts match the
# server's INFO counters.
serve-smoke:
	./scripts/serve_smoke.sh

# Telemetry, end to end: start prismserver with -metrics-addr and a data
# directory, drive a write-heavy prismload burst, scrape /metrics, and
# assert the key series exist and observed the burst (per-op latencies,
# write batching, WAL fsync latency, group-commit batch size), plus /events
# and the pprof mux.
metrics-smoke:
	./scripts/metrics_smoke.sh

# Durability, end to end: start prismserver with a data directory, drive a
# write burst journaling every acknowledged write client-side, kill -9 the
# server mid-run, restart, and verify no acknowledged write was lost; then
# kill -9 and recover once more (recovery must be idempotent).
crash-smoke:
	./scripts/crash_smoke.sh

# Fault tolerance, end to end: start prismserver with -chaos-debug, arm a
# WAL fault over the wire (DEBUG FAULT), and burst writes into it — the
# server must degrade to read-only (-READONLY refusals, reads and HEALTH
# still serving, process alive), survive a kill -9, and recover every
# acknowledged write on restart, healthy and writable again.
chaos-smoke:
	./scripts/chaos_smoke.sh

# Runs the harness benchmarks (YCSB-B read-heavy and YCSB-E scan-heavy,
# serial and parallel drivers) and emits BENCH_<date>.json so the perf
# trajectory is tracked per PR. See scripts/bench.sh for knobs.
bench:
	./scripts/bench.sh

# One fast iteration of the contended-read and contended-write rows
# (in-process hot-partition GETs and SETs at 1/8 goroutines, plus the
# GET-heavy serving row): a cheap CI tripwire for regressions in the
# lock-free read path and the batched write path, without waiting for the
# nightly bench script.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkContendedGets/goroutines=(1|8)' -benchtime 1x ./bench/
	$(GO) test -run '^$$' -bench 'BenchmarkContendedSets/goroutines=(1|8)' -benchtime 1x ./bench/
	$(GO) test -run '^$$' -bench 'BenchmarkServerContendedGets' -benchtime 1x ./internal/server/
