#!/bin/sh
# Runs the harness benchmarks with -benchmem and records the results as
# BENCH_<date>.json in the repo root, so the perf trajectory is tracked
# per PR. Knobs:
#
#   BENCH_PATTERN  -bench pattern (default ".")
#   BENCH_TIME     -benchtime (default "1x")
#
#   BENCH_PATTERN=BenchmarkYCSBB BENCH_TIME=5x ./scripts/bench.sh
set -e
cd "$(dirname "$0")/.."

out="BENCH_$(date +%Y-%m-%d).json"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# The driver benchmarks live in ./bench (including the contended-read
# scaling rows BenchmarkContendedGets/goroutines=1..8 — wall-Kops of one
# hot partition under concurrent lock-free GETs; the contended-write
# scaling rows BenchmarkContendedSets/goroutines=1..8 — wall-Kops of one
# hot partition through the batched owner-queue write path — plus the
# YCSB-A-shaped
# BenchmarkContendedMixed row with lock-free GETs racing the write queue,
# and the durability-cost
# rows BenchmarkWALFsyncModes/{sync,group,nosync} — acknowledged SETs/s
# against a real data directory under each WAL sync mode, where the
# sync-vs-nosync spread prices fsync-per-ack and group commit should
# recoup most of it), the per-figure harness
# benchmarks in the root package, and the wire-path benchmarks in
# ./internal/server: pipelined vs unpipelined serving, the GET-heavy
# multi-connection BenchmarkServerContendedGets row (prismload -workload c
# shape against a single hot partition), plus the compaction-interference
# trio (BenchmarkCompactionInterferenceSync/Async/None) — a write-heavy
# prismload-shaped SET stream against an in-process prismserver with
# demotion merges running steadily, whose set-p99-us rows track what
# foreground SETs pay for compaction under inline (sync) vs background
# (async) execution against the no-compaction baseline. The layer
# microbenchmarks follow: B-tree insert/get (./internal/btree), SST build
# and compaction read (BenchmarkSSTFinish, BenchmarkSSTReadAll in
# ./internal/sst), and one sync demotion round (BenchmarkCompactRange in
# ./internal/core); their B/op and allocs/op rows attribute an allocation
# regression to one layer. (|| status=$? keeps set -e from discarding the
# captured output on failure.)
status=0
go test -run '^$' -bench "${BENCH_PATTERN:-.}" -benchmem \
	-benchtime "${BENCH_TIME:-1x}" . ./bench/... ./internal/server/ \
	./internal/btree/ ./internal/sst/ ./internal/core/ > "$tmp" || status=$?
cat "$tmp"
[ "$status" -eq 0 ] || exit "$status"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
BEGIN { printf "{\n  \"date\": \"%s\",\n  \"benchmarks\": [\n", date; n = 0 }
/^Benchmark/ && NF >= 3 {
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"iters\": %s", $1, $2
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/"/, "", unit)
        printf ", \"%s\": %s", unit, $i
    }
    printf "}"
}
END { if (n) printf "\n"; print "  ]\n}" }
' "$tmp" > "$out"

echo "wrote $out"
