GO ?= go

.PHONY: build test bench ci serve router servesmoke servebench corpus corpussmoke corpusbench execbench fuzz fuzz-smoke goldens goldens-update hygiene

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench reproduces the Table III timing run.
bench:
	$(GO) test -bench BenchmarkTable3 -benchmem -run '^$$'

# ci runs the full gate: gofmt, vet, build, tests, and a race-detector pass
# over the scheduler and telemetry packages.
ci:
	sh scripts/ci.sh

# serve runs the pardetectd analysis service on its default address
# (localhost:7070); see README "The analysis service". servesmoke runs the
# end-to-end service smoke that CI runs (including the 3-backend router
# leg with a SIGKILL failover).
serve:
	$(GO) run ./cmd/pardetectd

# router fronts already-running pardetectd replicas with the sharded
# routing tier; override BACKENDS for your topology. See README "Scaling
# out" and DESIGN.md §9.
BACKENDS ?= http://127.0.0.1:7071,http://127.0.0.1:7072,http://127.0.0.1:7073
router:
	$(GO) run ./cmd/pardetectrouter -backends $(BACKENDS)

servesmoke:
	$(GO) run scripts/servesmoke.go

# servebench regenerates BENCH_serve.json, the committed serving baseline
# (fuzzer-driven load against an in-process pardetectd; throughput, latency
# quantiles, hit/reject rates, plus the 3-replica router affinity/failover
# leg) that scripts/servegate.go gates CI against.
servebench:
	$(GO) run ./cmd/servebench -dur 3s -c 4 -replicas 3 -out BENCH_serve.json

# corpus runs corpus mode over CORPUS_DIR (see README "Corpus mode"):
# analyse every wire-IR program under the directory, re-analysing only what
# changed since the last run. corpussmoke is the end-to-end CI smoke;
# corpusbench regenerates BENCH_corpus.json, the committed cold/warm/dirty
# baseline that scripts/corpusgate.go gates CI against.
CORPUS_DIR ?= corpus
corpus:
	$(GO) run ./cmd/parcorpus -dir $(CORPUS_DIR) -store-dir $(CORPUS_DIR)/.store

corpussmoke:
	$(GO) run scripts/corpussmoke.go

corpusbench:
	$(GO) run ./cmd/parcorpus -bench 1000 -bench-out BENCH_corpus.json

# hygiene runs the repo-hygiene gate CI runs first: no tracked binaries or
# scratch benchmark artifacts.
hygiene:
	sh scripts/hygiene.sh

# execbench regenerates BENCH_exec.json, the committed engine-comparison
# baseline (tree vs bytecode, traced vs untraced, plus full
# per-app analyses) that scripts/benchgate.go gates CI against.
execbench:
	EXEC_OUT=BENCH_exec.json $(GO) test -bench 'BenchmarkExec' -benchtime 20x -run '^$$' .

# fuzz hunts for new divergences: each native target runs for FUZZTIME
# (default 10 minutes) from the committed corpus in
# internal/fuzzer/testdata/fuzz and internal/wire/testdata/fuzz. Reproduce
# a fuzzer find with `pardetect -fuzz-seed <seed>`; a FuzzDecode find is a
# wire document, replayed by `go test ./internal/wire/`.
FUZZTIME ?= 10m
fuzz:
	for t in FuzzGenerate FuzzDifferential FuzzEngine FuzzMetamorphic; do \
		$(GO) test ./internal/fuzzer/ -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
	done
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME)

# fuzz-smoke is the bounded CI variant: 10 seconds per target, enough to
# replay the corpus and prove the harness still executes.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=10s

# goldens byte-compares the rendered Tables III-V against testdata/goldens/;
# goldens-update rewrites them after an intentional detector change.
goldens:
	sh scripts/goldens.sh check

goldens-update:
	sh scripts/goldens.sh update
