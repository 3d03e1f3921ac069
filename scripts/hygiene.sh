#!/bin/sh
# hygiene.sh — repo-hygiene gate: the tree must not track build products,
# and the docs must not name tools that do not exist.
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
# Also fails when code in README.md, DESIGN.md or EXPERIMENTS.md (an
# inline `span` or a fenced block) names a `make <target>` the Makefile
# does not define, a scripts/<name>.go|.sh, cmd/<name> or BENCH_*.json
# that is not in the tree, an option <pkg>.Options.<Field> that the
# Options struct of internal/<pkg> does not declare, or a -<flag> given to
# a binary of cmd/ that its main.go does not define — so deleting a tool or
# a knob cannot leave docs that tell readers to use it. A binary is invoked
# by a cmd/<name> path (the flags after it count) or by a command whose
# first word is <name> or ends in /<name>; a command ends at |, ;, &&, #
# or the end of the span, and [ ] are stripped so optional flags count. A
# historical mention goes in plain text instead. bench/README.md is not
# checked yet.
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
# doc_code prints every code span of the named markdown files, one per
# line as file:line: text. An inline span may wrap lines; an empty line
# ends it, so a stray backtick cannot swallow the rest of the file.
doc_code() {
    awk '
    FNR == 1 { open = 0; fence = 0; span = "" }
    /^[ \t]*```/ { fence = !fence; next }
    fence { print FILENAME ":" FNR ": " $0; next }
    $0 == "" { open = 0; span = ""; next }
    {
        n = split($0, seg, "`")
        for (k = 1; k <= n; k++) {
            if (k > 1) {
                if (open) { print FILENAME ":" start ":" span; span = "" }
                else start = FNR
                open = !open
            }
            if (open) span = span " " seg[k]
        }
    }' "$@"
}

# options_fields prints the field names the Options struct of the Go
# package in directory $1 declares, one per line (test files excluded).
options_fields() {
    for f in "$1"/*.go; do
        case "$f" in *_test.go) continue ;; esac
        [ -f "$f" ] && cat "$f"
    done | awk '
    /^type Options struct/ { in_s = 1; next }
    in_s && /^}/ { in_s = 0 }
    in_s {
        sub(/\/\/.*/, "")
        gsub(/,[ \t]*/, ",")
        if ($1 ~ /^[A-Z]/) {
            n = split($1, names, ",")
            for (k = 1; k <= n; k++) print names[k]
        }
    }'
}

# cmd_flags reads doc_code lines and prints "<where> <name> <flag>" for
# every -<flag> a code span gives to a binary cmd/<name> (see the header
# for the rules).
cmd_flags() {
    awk -v cmds="$(ls cmd | tr '\n' ' ')" '
    BEGIN { split(cmds, list, " "); for (k in list) known[list[k]] = 1 }
    {
        i = index($0, ": ")
        where = substr($0, 1, i - 1)
        code = substr($0, i + 2)
        gsub(/[][]/, "", code)
        n = split(code, parts, /\||;|&&|#/)
        for (c = 1; c <= n; c++) {
            m = split(parts[c], w, " ")
            bin = ""
            for (k = 1; k <= m; k++) {
                word = w[k]
                if (bin != "" && match(word, /^--?[A-Za-z][A-Za-z0-9_.-]*/)) {
                    word = substr(word, 1, RLENGTH)
                    sub(/^--?/, "", word)
                    print where, bin, word
                    continue
                }
                base = word
                sub(/\/$/, "", base)
                sub(/.*\//, "", base)
                if ((k == 1 || word ~ /(^|\/)cmd\/[A-Za-z0-9_-]+\/?$/) && base in known) bin = base
            }
        }
    }'
}

stale=$(
    doc_code README.md DESIGN.md EXPERIMENTS.md | while IFS= read -r line; do
        where=${line%%: *}
        code=${line#*: }
        for target in $(printf '%s\n' "$code" | grep -oE '(^|[^A-Za-z0-9_.-])make [a-z][a-z0-9_-]*' | sed 's/.*make //'); do
            grep -q "^$target:" Makefile || echo "$where: make $target (no such Makefile target)"
        done
        for path in $(printf '%s\n' "$code" | grep -oE '(^|[^A-Za-z0-9_/.-])(\./)?(scripts/[A-Za-z0-9_-]+\.(go|sh)|cmd/[A-Za-z0-9_-]+)' | sed 's/^[^sc.]*//; s/^\.\///'); do
            [ -e "$path" ] || echo "$where: $path (not in the tree)"
        done
        for name in $(printf '%s\n' "$code" | grep -oE 'BENCH_[A-Za-z0-9_*.-]*\.json'); do
            set -- $name
            [ -e "$1" ] || echo "$where: $name (not in the tree)"
        done
        for opt in $(printf '%s\n' "$code" | grep -oE '(^|[^A-Za-z0-9_.])[a-z][a-z0-9]*\.Options\.[A-Z][A-Za-z0-9_]*' | sed 's/^[^a-z]*//'); do
            pkg=${opt%%.*}
            field=${opt##*.}
            options_fields "internal/$pkg" | grep -qx "$field" ||
                echo "$where: $opt (internal/$pkg declares no such option)"
        done
    done
    doc_code README.md DESIGN.md EXPERIMENTS.md | cmd_flags | while read -r where bin flag; do
        case "$flag" in h | help) continue ;; esac
        grep -qE "flag\.[A-Za-z0-9]+\(\"$flag\"" "cmd/$bin/main.go" ||
            echo "$where: $bin -$flag (cmd/$bin defines no such flag)"
    done
)
if [ -n "$stale" ]; then
    echo "docs name tools that do not exist:" >&2
    echo "$stale" >&2
    echo "(fix the name, or reword a historical mention as plain text)" >&2
    exit 1
fi
echo "hygiene: clean ($(git ls-files | wc -l | tr -d ' ') tracked files)"
