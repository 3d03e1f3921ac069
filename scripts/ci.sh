#!/bin/sh
# ci.sh — the repository's continuous-integration gate.
#
# In order:
#   - repo hygiene (scripts/hygiene.sh): the tree tracks no built binaries
#     and no scratch benchmark artifacts (*.fresh.json);
#   - gofmt, and two telemetry-cost checks: no non-test Go file may call
#     runtime.ReadMemStats, which stops the world (spans and farm jobs read
#     runtime/metrics through obs.HeapAllocBytes), and no non-test Go file
#     outside internal/obs and the benchmark module (bench/) may name
#     obs.EventTracer: an observed analysis reads its events.* counters
#     from the phase-1 collector, so phase 1 runs one tracer either way;
#   - go vet, go build, go test, and a shuffled test pass (-shuffle=on) to
#     catch test-order dependencies;
#   - a race-detector pass over the concurrency-sensitive packages: the
#     parallel schedulers, the telemetry observer, the analysis farm (its
#     tests run all 19 app analyses concurrently), the fuzzer, the
#     pardetectd service, the router, corpus mode, the result store (its
#     Gets read records outside its lock while Puts append and compact,
#     and its tests share one directory across handles and processes),
#     the profilers (their
#     shadow pages are recycled across concurrent analyses), the PET
#     builder (fed from that consumer goroutine), the interpreter (both
#     engines hand event buffers to a consumer goroutine) and the analysis
#     core that drives it;
#   - a bounded fuzz (20 s) of the hand-written wire-IR decoder against
#     the reflective encoding/json decoder it replaced (FuzzDecodeParity in
#     internal/wire: both reject, or both accept with equal fingerprints
#     and re-encoded bytes);
#   - a build-and-smoke run of the benchmark module (bench/, its own Go
#     module, which the root `go test ./...` never compiles: every workload
#     once, untraced and traced);
#   - the golden-table gate (scripts/goldens.sh: Tables III-V byte-diffed
#     against testdata/goldens/ under both interpreter engines);
#   - the pardetectd smoke (scripts/servesmoke.go: cached and uncached
#     requests, batch NDJSON, a hostile program refused with 400 and the
#     daemon still healthy, backpressure, /healthz, SIGTERM drain and a
#     warm restart against the real binary, plus a 3-backend
#     pardetectrouter leg with affinity, batch fan-out and a backend
#     SIGKILLed mid-run);
#   - the corpus-mode smoke (scripts/corpussmoke.go: a CORPUS_N-program
#     corpus, default 1000, through the real parcorpus binary: byte-identical
#     cold reports across -jobs and -engine, a fresh-manifest rerun served
#     wholly from the store, a fully skipped warm rerun and exactly one
#     re-analysis after touching one file);
#   - a fuzzer campaign (CAMPAIGN_N programs, default 500) whose
#     differential, engine-parity and metamorphic oracles must all agree;
#   - the performance gate (scripts/perfgate.sh): three alternating pairs
#     of every benchmark workload, the base commit PERF_BASE (default
#     HEAD~1; also used when PERF_BASE names no commit in this clone, as
#     after a force-push or on a new branch) against this tree on this
#     machine, failing on any `pdbench -compare` "worse" verdict, on a
#     metric where every change run is worse than every base run by more
#     than its bound, or on a higher failed-operation share
#     (scripts/perfcheck.go).
#
# Usage: scripts/ci.sh   (or: make ci)
set -eu

cd "$(dirname "$0")/.."

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

echo "==> no obs.EventTracer outside internal/obs and bench/ (phase 1 runs one tracer)"
evtracer=$(grep -rn --include='*.go' --exclude='*_test.go' 'EventTracer' . | grep -v -e '^\./internal/obs/' -e '^\./bench/' || true)
if [ -n "$evtracer" ]; then
    echo "obs.EventTracer is a second phase-1 consumer; read events.* from the collector instead (core.recordProfileCounters):" >&2
    echo "$evtracer" >&2
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

echo "==> go test -race ./internal/parallel/... ./internal/obs/... ./internal/farm/... ./internal/fuzzer/... ./internal/server/... ./internal/router/... ./internal/corpus/... ./internal/store/... ./internal/trace/... ./internal/pet/... ./internal/interp/... ./internal/core/..."
go test -race ./internal/parallel/... ./internal/obs/... ./internal/farm/... ./internal/fuzzer/... ./internal/server/... ./internal/router/... ./internal/corpus/... ./internal/store/... ./internal/trace/... ./internal/pet/... ./internal/interp/... ./internal/core/...

echo "==> wire decoder parity fuzz (FuzzDecodeParity, 20s)"
go test -run '^$' -fuzz '^FuzzDecodeParity$' -fuzztime 20s ./internal/wire

echo "==> benchmark module smoke (cd bench && go test ./...)"
(cd bench && go test ./...)

echo "==> golden tables III-V under both engines (scripts/goldens.sh)"
sh scripts/goldens.sh check

echo "==> pardetectd service smoke (scripts/servesmoke.go)"
go run scripts/servesmoke.go

echo "==> corpus-mode smoke (scripts/corpussmoke.go, ${CORPUS_N:-1000} programs)"
go run scripts/corpussmoke.go

echo "==> fuzzer campaign (${CAMPAIGN_N:-500} programs)"
CAMPAIGN_N="${CAMPAIGN_N:-500}" go test -run '^TestCampaign$' -count=1 -v ./internal/fuzzer/

perf_base=${PERF_BASE:-HEAD~1}
if ! git rev-parse --verify --quiet "$perf_base^{commit}" >/dev/null; then
    echo "note: PERF_BASE $perf_base is not a commit in this clone; comparing against HEAD~1"
    perf_base=HEAD~1
fi
echo "==> performance gate (scripts/perfgate.sh $perf_base)"
sh scripts/perfgate.sh "$perf_base"

echo "ci: all checks passed"
