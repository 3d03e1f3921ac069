GO ?= go

.PHONY: build test bench ci perfgate serve router servesmoke corpus corpussmoke fuzz fuzz-smoke goldens goldens-update hygiene

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

# perfgate runs three alternating base/change pairs of every benchmark
# workload (bench/) on this machine and fails on any `pdbench -compare`
# "worse" verdict or any scripts/perfcheck.go failure. PERF_BASE is the
# commit compared against.
PERF_BASE ?= HEAD~1
perfgate:
	sh scripts/perfgate.sh $(PERF_BASE)

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

# corpus runs corpus mode over CORPUS_DIR (see README "Corpus mode"):
# analyse every wire-IR program under the directory, re-analysing only what
# changed since the last run. corpussmoke is the end-to-end CI smoke.
CORPUS_DIR ?= corpus
corpus:
	$(GO) run ./cmd/parcorpus -dir $(CORPUS_DIR) -store-dir $(CORPUS_DIR)/.store

corpussmoke:
	$(GO) run scripts/corpussmoke.go

# hygiene runs the repo-hygiene gate CI runs first: no tracked binaries or
# scratch benchmark artifacts.
hygiene:
	sh scripts/hygiene.sh

# fuzz hunts for new divergences: each native target runs for FUZZTIME
# (default 10 minutes) from the committed corpus in
# internal/fuzzer/testdata/fuzz and internal/wire/testdata/fuzz. Reproduce
# a fuzzer find with `pardetect -fuzz-seed <seed>`; a FuzzDecode or
# FuzzDecodeParity find is a wire document, replayed by
# `go test ./internal/wire/`.
FUZZTIME ?= 10m
fuzz:
	for t in FuzzGenerate FuzzDifferential FuzzEngine FuzzMetamorphic; do \
		$(GO) test ./internal/fuzzer/ -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
	done
	for t in FuzzDecode FuzzDecodeParity; do \
		$(GO) test ./internal/wire/ -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# fuzz-smoke is the bounded CI variant: 10 seconds per target, enough to
# replay the corpus and prove the harness still executes.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=10s

# goldens byte-compares Tables III-V and the per-app profiler fingerprints
# against testdata/goldens/ under both interpreter engines (the same check
# `go test ./...` runs); goldens-update rewrites them from the tree engine
# after an intentional detector change.
goldens:
	$(GO) test -count=1 -run '^TestFingerprintGolden$$' .

goldens-update:
	$(GO) test -count=1 -run '^TestFingerprintGolden$$' . -update-goldens
