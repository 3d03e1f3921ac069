#!/usr/bin/env bash
# run.sh builds pdbench from this source tree and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload table3 --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (compiler cache, Go config, the binary) stays
# under .bench_build/ in the current directory, and the Go toolchain is kept
# offline: no module or toolchain downloads.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin" # the toolchain's default install place

(cd "$root/bench" && go build -o "$out/pdbench" ./pdbench) >&2
exec "$out/pdbench" "$@"
