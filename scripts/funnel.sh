#!/usr/bin/env bash
# Funnel diff of the perf ledger: <parent-rev> against the working tree.
#
#   scripts/funnel.sh <parent-rev> [workload...]     # default workload: small_stream
#
# A change that claims to keep every hit and bound (a faster kernel, a
# cheaper cache path) must leave the search funnel exactly where it was.
# On a single-engine workload the funnel rows of `ledger --trace 1` are
# deterministic counts, so "unchanged" is an exact comparison, not a
# statistical one. The parent's committed files are extracted with
# `git archive` into $(mktemp -d) (set TMPDIR to choose where), both
# ledgers are built --offline once, each side runs `ledger --workload <w>
# --trace 1` once per workload, and the funnel rows are printed side by
# side. Exit status: 0 when every row of every workload is identical and
# every run is "correct":true, 1 otherwise, 2 on bad usage. On
# `large_sharded` the shards race on θ, so its rows jitter and a
# difference there proves nothing.
set -euo pipefail

usage() { sed -n '2,4p' "$0" >&2; exit 2; }
[ $# -ge 1 ] || usage
parent_rev=$1
shift
[ $# -ge 1 ] || set -- small_stream

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
parent_sha=$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")
work=$(mktemp -d -t koios-funnel.XXXXXX)
mkdir "$work/parent"
git -C "$root" archive "$parent_sha" | tar -x -C "$work/parent"

build() { # <root> -> prints the ledger path
    cargo build --release --offline --quiet \
        --manifest-path "$1/bench/ledger/Cargo.toml" --bin ledger >&2
    echo "$1/bench/ledger/target/release/ledger"
}
parent_bin=$(build "$work/parent")
change_bin=$(build "$root")

rows="core.candidates core.postprocess_share core.no_em_share core.em_early_share
core.em_per_hit core.matrix_cells_per_hit core.theta_raises core.bucket_moves
index.postings_scanned"

run() { # <bin> <root> <workload> -> the run's last stdout line (the JSON report)
    "$1" --workload "$3" --trace 1 --root "$2" | tail -n 1
}
value() { # <line> <metric>
    printf '%s' "$1" | sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p"
}

echo "# scripts/funnel.sh $parent_rev $* — parent $parent_sha vs working tree at $(git -C "$root" rev-parse --short HEAD)$(git -C "$root" diff --quiet HEAD || echo '+dirty')"
status=0
correct() { # <side> <workload> <line>
    case $3 in
        *'"correct":true'*) ;;
        *) echo "funnel.sh: the $1 run of $2 is not \"correct\":true" >&2; status=1 ;;
    esac
}
for workload in "$@"; do
    parent_line=$(run "$parent_bin" "$work/parent" "$workload")
    change_line=$(run "$change_bin" "$root" "$workload")
    echo
    echo "## ledger --workload $workload --trace 1, one run per side"
    correct parent "$workload" "$parent_line"
    correct change "$workload" "$change_line"
    printf '%-28s %-22s %-22s %s\n' row parent change verdict
    for m in $rows; do
        p=$(value "$parent_line" "$m")
        c=$(value "$change_line" "$m")
        if [ -z "$p" ] || [ -z "$c" ]; then
            verdict=MISSING
            status=1
        elif [ "$p" = "$c" ]; then
            verdict=identical
        else
            verdict=DIFFERS
            status=1
        fi
        printf '%-28s %-22s %-22s %s\n' "$m" "${p:--}" "${c:--}" "$verdict"
    done
done
exit $status
