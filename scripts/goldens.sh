#!/bin/sh
# goldens.sh — golden-table gate for the paper's evaluation tables.
#
# The committed files under testdata/goldens/ are the byte-exact renderings
# of Tables III, IV and V (cmd/benchtab -table N). "check" (the default, and
# what ci.sh runs) regenerates each table under both interpreter engines
# (tree, bytecode) and byte-compares each against the one golden; any
# drift — an intentional detector change, an accidental regression, or an
# engine divergence — fails the gate and prints the diff. After an
# intentional change, rerun in "update" mode (goldens are written from the
# reference tree engine, named explicitly since bytecode is the default,
# then re-checked under both engines) and commit the new goldens with the
# change that caused them.
#
# It also runs TestFingerprintGolden (fingerprints_test.go), which checks
# testdata/goldens/fingerprints.txt under both engines: per Table III app
# the phase-1 profile and result fingerprints, a PET digest, a digest of
# every phase-2 sample and a digest of the decision log. Update mode
# rewrites it from the tree engine too.
#
# Usage: scripts/goldens.sh [check|update]
set -eu

cd "$(dirname "$0")/.."
mode="${1:-check}"
case "$mode" in
check | update) ;;
*)
    echo "usage: scripts/goldens.sh [check|update]" >&2
    exit 2
    ;;
esac

bin=$(mktemp)
trap 'rm -f "$bin"' EXIT
go build -o "$bin" ./cmd/benchtab

mkdir -p testdata/goldens
rc=0
for t in 3 4 5; do
    golden="testdata/goldens/table$t.txt"
    if [ "$mode" = update ]; then
        "$bin" -engine tree -table "$t" >"$golden"
        echo "goldens: wrote $golden"
    fi
    for engine in tree bytecode; do
        tmp="$golden.new"
        "$bin" -engine "$engine" -table "$t" >"$tmp"
        if [ ! -f "$golden" ]; then
            echo "goldens: missing $golden (run: scripts/goldens.sh update)" >&2
            rm -f "$tmp"
            rc=1
            continue
        fi
        if cmp -s "$golden" "$tmp"; then
            rm -f "$tmp"
            echo "goldens: table $t ok (engine=$engine)"
        else
            echo "goldens: table $t drifted (engine=$engine):" >&2
            diff -u "$golden" "$tmp" >&2 || true
            rm -f "$tmp"
            rc=1
        fi
    done
done
fpflag=""
[ "$mode" = update ] && fpflag="-update-fingerprints"
if go test -count=1 -run '^TestFingerprintGolden$' . $fpflag >/dev/null 2>&1; then
    echo "goldens: fingerprints ok (engines tree, bytecode)"
else
    echo "goldens: fingerprints drifted:" >&2
    go test -count=1 -run '^TestFingerprintGolden$' . >&2 || true
    rc=1
fi
[ "$rc" -eq 0 ] && echo "goldens: all tables and fingerprints match under both engines"
exit "$rc"
