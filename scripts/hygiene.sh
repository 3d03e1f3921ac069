#!/bin/sh
# hygiene.sh — repo-hygiene gate: the tree must not track build products.
#
# Fails when `git ls-files` contains:
#   - scratch benchmark artifacts (*.fresh.json) — those are per-run
#     outputs; a committed one goes stale and poisons every later
#     comparison against it;
#   - files with the executable bit outside *.sh — compiled binaries
#     accidentally `git add`ed from the repo root;
#   - files with binary content (grep's binary-files classification — a
#     tracked file the tools would refuse to diff is a build product).
#
# Usage: sh scripts/hygiene.sh   (ci.sh runs it first; the GitHub workflow
# runs it as its own named step so a violation is visible at a glance)
set -eu

cd "$(dirname "$0")/.."

violations=$(
    git ls-files -- '*.fresh.json' | sed 's/^/scratch artifact: /'
    git ls-files | while IFS= read -r f; do
        if [ ! -f "$f" ]; then continue; fi
        case "$f" in
        *.sh) ;;
        *) if [ -x "$f" ]; then echo "executable bit: $f"; fi ;;
        esac
        if [ -s "$f" ] && ! LC_ALL=C grep -qI '' "$f"; then
            echo "binary content: $f"
        fi
    done
)
if [ -n "$violations" ]; then
    echo "tracked files violating repo hygiene:" >&2
    echo "$violations" >&2
    echo "(binaries and *.fresh.json are build products: git rm --cached them; .gitignore covers the usual ones)" >&2
    exit 1
fi
echo "hygiene: clean ($(git ls-files | wc -l | tr -d ' ') tracked files)"
