#!/usr/bin/env bash
# Line counts for the before/after table of a simplicity entry in CHANGES.md.
#
#   scripts/loc.sh [paths…]      # files or directories, relative to the repo root
#
# Per *.rs file: non-test lines (everything above the first `#[cfg(test)]`)
# and test lines (that line and everything below it; all of a file under a
# `tests/` directory), then the sum.
# Without arguments it prints only the two totals every entry quotes: the
# workspace (`crates/ src/ tests/ examples/`) and `bench/ledger`.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # <label> <per-file: 0|1> <paths…>
    local label=$1 per_file=$2
    shift 2
    find "$@" -name '*.rs' -not -path '*/target/*' -print0 | sort -z | xargs -0 awk -v label="$label" -v per_file="$per_file" '
        FNR == 1 { in_tests = FILENAME ~ /(^|\/)tests\//; files[++n] = FILENAME }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        { if (in_tests) tests[FILENAME]++; else code[FILENAME]++ }
        END {
            for (i = 1; i <= n; i++) {
                f = files[i]
                if (per_file) printf "%8d %8d  %s\n", code[f], tests[f], f
                code_sum += code[f]; test_sum += tests[f]
            }
            printf "%8d %8d  %s (%d files, %d lines)\n", code_sum, test_sum, label, n, code_sum + test_sum
        }'
}

printf '%8s %8s\n' non-test tests
if [ $# -gt 0 ]; then
    count total 1 "$@"
else
    count 'crates/ src/ tests/ examples/' 0 crates src tests examples
    count 'bench/ledger' 0 bench/ledger
fi
