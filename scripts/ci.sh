#!/bin/sh
# ci.sh — the repository's continuous-integration gate.
#
# Runs the same checks the tier-1 acceptance uses, plus formatting, vet and
# a race-detector pass over the concurrency-sensitive packages (the parallel
# schedulers, the telemetry observer — which takes events from tracer
# callbacks while debug endpoints snapshot it — the analysis farm, whose
# tests run all 19 app analyses concurrently, and the pardetectd service),
# plus a one-shot BenchmarkFarm smoke run so the batch driver keeps working
# as a benchmark harness, and a pardetectd end-to-end smoke
# (scripts/servesmoke.go: cached + uncached request, backpressure probe,
# /healthz, clean SIGTERM drain against the real binary, plus a 3-backend +
# pardetectrouter leg: routed affinity, batch fan-out, and failover after a
# backend SIGKILL).
#
# Next to gofmt and vet, a telemetry-cost gate: no non-test Go file may call
# runtime.ReadMemStats, which stops the world on every call (spans and farm
# jobs read their allocation from runtime/metrics via obs.HeapAllocBytes).
#
# Before any of that, a repo-hygiene gate: the tree must not track built
# binaries (executable bits outside *.sh, or binary file content) or scratch
# benchmark artifacts (*.fresh.json) — those are build products, and a
# committed one silently staleness-poisons every later comparison.
#
# On top of that: a shuffled test pass (-shuffle=on) to catch test-order
# dependencies, a build-and-smoke run of the benchmark module (bench/, its
# own Go module, which the root `go test ./...` never compiles: every
# workload once, untraced and traced), the golden-table gate
# (scripts/goldens.sh, byte-diffs the rendered Tables III-V against
# testdata/goldens/ under both interpreter engines), a bounded fuzzer
# campaign (internal/fuzzer, CAMPAIGN_N programs, default 500) whose
# differential — including the tree-vs-bytecode
# engine-parity oracle — and metamorphic oracles must all agree, an
# execution-engine benchmark smoke (BenchmarkExec plus BenchmarkExecAnalysis
# into a temp-dir BENCH_exec.fresh.json, gated by scripts/benchgate.go
# against the committed BENCH_exec.json: a >40% geomean regression of the
# bytecode engine fails the build), and a serving-layer benchmark smoke
# (cmd/servebench with
# -replicas 3 into a temp-dir BENCH_serve.fresh.json, gated by
# scripts/servegate.go: non-zero throughput, ordered latency quantiles,
# populated /metrics histograms, router affinity >= 0.95 with zero failover
# errors, no throughput collapse against the committed BENCH_serve.json).
#
# Corpus mode gets the same two-layer treatment: an end-to-end smoke
# (scripts/corpussmoke.go — generates a CORPUS_N-program corpus, proves the
# shipped parcorpus binary emits byte-identical cold reports across -jobs
# and -engine, a 100%-skipped warm rerun, and exactly-one re-analysis after
# touching one file) and a benchmark gate (parcorpus -bench into a temp-dir
# BENCH_corpus.fresh.json, validated structurally by scripts/corpusgate.go
# alongside the committed BENCH_corpus.json: cold analyses everything, warm
# re-analyses nothing, dirty re-analyses exactly the touched programs, and
# warm beats cold on wall time).
#
# Usage: scripts/ci.sh   (or: make ci)
set -eu

cd "$(dirname "$0")/.."

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

echo "==> repo hygiene (no tracked binaries or scratch artifacts)"
sh scripts/hygiene.sh

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> no runtime.ReadMemStats outside tests (it stops the world)"
memstats=$(grep -rn --include='*.go' --exclude='*_test.go' 'runtime\.ReadMemStats' . || true)
if [ -n "$memstats" ]; then
    echo "runtime.ReadMemStats stops the world on every call; read runtime/metrics instead (obs.HeapAllocBytes):" >&2
    echo "$memstats" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -shuffle=on -count=1 ./...  (order-independence)"
go test -shuffle=on -count=1 ./...

echo "==> go test -race ./internal/parallel/... ./internal/obs/... ./internal/farm/... ./internal/fuzzer/... ./internal/server/... ./internal/router/... ./internal/corpus/..."
go test -race ./internal/parallel/... ./internal/obs/... ./internal/farm/... ./internal/fuzzer/... ./internal/server/... ./internal/router/... ./internal/corpus/...

echo "==> benchmark module smoke (cd bench && go test ./...)"
(cd bench && go test ./...)

echo "==> golden tables III-V under both engines (scripts/goldens.sh)"
sh scripts/goldens.sh check

echo "==> pardetectd service smoke (scripts/servesmoke.go)"
go run scripts/servesmoke.go

echo "==> servebench smoke (cmd/servebench, 3-replica router leg, vs committed BENCH_serve.json)"
go run ./cmd/servebench -dur "${SERVEBENCH_DUR:-2s}" -c 4 -replicas 3 -out "$scratch/BENCH_serve.fresh.json"
go run scripts/servegate.go -baseline BENCH_serve.json -fresh "$scratch/BENCH_serve.fresh.json"

echo "==> corpus-mode smoke (scripts/corpussmoke.go, ${CORPUS_N:-1000} programs)"
go run scripts/corpussmoke.go

echo "==> corpus benchmark gate (parcorpus -bench vs committed BENCH_corpus.json)"
go run ./cmd/parcorpus -bench "${CORPUSBENCH_N:-200}" -bench-out "$scratch/BENCH_corpus.fresh.json"
go run scripts/corpusgate.go -baseline BENCH_corpus.json -fresh "$scratch/BENCH_corpus.fresh.json"

echo "==> fuzzer campaign (${CAMPAIGN_N:-500} programs)"
CAMPAIGN_N="${CAMPAIGN_N:-500}" go test -run '^TestCampaign$' -count=1 -v ./internal/fuzzer/

echo "==> BenchmarkFarm smoke (1 iteration per pool size)"
go test -run '^$' -bench '^BenchmarkFarm$' -benchtime 1x .

echo "==> execution-engine benchmark gate (BenchmarkExec + BenchmarkExecAnalysis vs committed BENCH_exec.json)"
EXEC_OUT="$scratch/BENCH_exec.fresh.json" go test -run '^$' -bench '^BenchmarkExec(Analysis)?$' -benchtime "${EXECBENCH_TIME:-20x}" .
go run scripts/benchgate.go -baseline BENCH_exec.json -fresh "$scratch/BENCH_exec.fresh.json"

echo "ci: all checks passed"
