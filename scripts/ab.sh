#!/usr/bin/env bash
# Paired A/B of the perf ledger: <parent-rev> against the working tree.
#
#   scripts/ab.sh <parent-rev> [pairs] [seed]        # defaults: 10 pairs, seed 42
#
# Method (choosing-metrics §8): the parent's committed files are extracted
# into a fresh directory, both ledgers are built --offline with the same
# settings, and every workload of BENCHMARK.json runs <pairs> alternating
# pairs — odd pairs parent first, even pairs change first, so a slow minute
# of the host lands on both sides. Per end-to-end metric the table gives
# each side's median and quartiles, how many pairs the change won (ties
# count for neither) and the verdict: "gain"/"loss" only when nine tenths of
# the pairs agree AND the medians differ by more than the parent's own
# interquartile distance; "within parent IQR" only when that distance is
# itself inside the metric's BENCHMARK.json bound, "unresolved (parent IQR
# N% > bound M%)" when the parent is noisier than the bound can resolve; a
# median worse than the parent's by more than the bound is flagged whatever
# the pairs say. Every run must end "correct":true with 0 failed, or the
# script stops. Raw values are kept in <workdir>/runs.tsv; the header of
# the output carries the command that produced it.
#
# The parent is extracted with `git archive` into $(mktemp -d) (set TMPDIR to
# choose where): nothing is registered in .git and what is measured is what
# is committed. Each run takes run_seconds of BENCHMARK.json plus set-up
# (~25-30 s), so 10 pairs over four workloads is about 40 minutes.
set -euo pipefail

usage() { sed -n '2,4p' "$0" >&2; exit 2; }
[ $# -ge 1 ] || usage
parent_rev=$1
pairs=${2:-10}
seed=${3:-42}
case $pairs in ''|*[!0-9]*|0) usage ;; esac

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
parent_sha=$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")
work=$(mktemp -d -t koios-ab.XXXXXX)
mkdir "$work/parent"
git -C "$root" archive "$parent_sha" | tar -x -C "$work/parent"

build() { # <root> -> prints the ledger path
    cargo build --release --offline --quiet \
        --manifest-path "$1/bench/ledger/Cargo.toml" --bin ledger >&2
    echo "$1/bench/ledger/target/release/ledger"
}
parent_bin=$(build "$work/parent")
change_bin=$(build "$root")

# Names out of the pretty-printed BENCHMARK.json: workloads, and the
# end-to-end metrics with the direction in which they improve and the
# share by which they may worsen.
section() { # <from-key> <to-key>
    awk -v from="\"$1\"" -v to="\"$2\"" \
        '$0 ~ to {on=0} on {print} $0 ~ from {on=1}' "$root/BENCHMARK.json"
}
workloads=$(section workloads end_to_end | sed -n 's/.*"name": "\(.*\)".*/\1/p')
metrics=$(section end_to_end per_layer |
    sed -n 's/.*"name": "\(.*\)".*/\1/p; s/.*"better": "\(.*\)".*/\1/p; s/.*"bound": \([0-9.]*\).*/\1/p' |
    paste - - -)

run() { # <side> <bin> <root> <workload> <pair> -> appends to runs.tsv
    local last
    last=$("$2" --workload "$4" --seed "$seed" --root "$3" | tail -n 1)
    case $last in
        *'"correct":true'*'"failed":0,'*) ;;
        *) echo "ab.sh: $1 run of $4 (pair $5) is not correct: $last" >&2; exit 1 ;;
    esac
    while read -r metric _; do
        value=$(printf '%s' "$last" | sed -n "s/.*\"$metric\":{\"value\":\([^,}]*\).*/\1/p")
        printf '%s\t%s\t%s\t%s\t%s\n' "$4" "$5" "$1" "$metric" "$value" >>"$work/runs.tsv"
    done <<<"$metrics"
}

echo "# scripts/ab.sh $* — parent $parent_sha vs working tree at $(git -C "$root" rev-parse --short HEAD)$(git -C "$root" diff --quiet HEAD || echo '+dirty')"
echo "# $pairs pairs per workload, seed $seed, $(nproc) cores, workdir $work"
for w in $workloads; do
    for pair in $(seq "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then
            run parent "$parent_bin" "$work/parent" "$w" "$pair"
            run change "$change_bin" "$root" "$w" "$pair"
        else
            run change "$change_bin" "$root" "$w" "$pair"
            run parent "$parent_bin" "$work/parent" "$w" "$pair"
        fi
    done
    echo
    echo "## $w"
    printf '%-10s %-7s %-28s %-28s %-6s %-8s %s\n' \
        metric better 'parent med [q1..q3]' 'change med [q1..q3]' wins delta verdict
    while read -r metric better bound; do
        awk -F'\t' -v w="$w" -v m="$metric" -v better="$better" -v bound="$bound" -v pairs="$pairs" '
            function quantile(a, n, p,    h, lo) {  # a[1..n] sorted; linear interpolation
                h = (n - 1) * p; lo = int(h)
                return lo + 2 > n ? a[n] : a[lo + 1] + (h - lo) * (a[lo + 2] - a[lo + 1])
            }
            function sorted(src, dst, n,    i, j, t) {
                for (i = 1; i <= n; i++) dst[i] = src[i]
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) {
                        t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t
                    }
            }
            $1 == w && $4 == m { v[$3, $2] = $5 }
            END {
                for (i = 1; i <= pairs; i++) {
                    p[i] = v["parent", i]; c[i] = v["change", i]
                    d = better == "higher" ? c[i] - p[i] : p[i] - c[i]
                    if (d > 0) wins++; else if (d < 0) losses++
                }
                sorted(p, ps, pairs); sorted(c, cs, pairs)
                pm = quantile(ps, pairs, .5); cm = quantile(cs, pairs, .5)
                iqr = quantile(ps, pairs, .75) - quantile(ps, pairs, .25)
                diff = better == "higher" ? cm - pm : pm - cm
                beyond = (diff > iqr || -diff > iqr)
                verdict = "unresolved"
                if (wins >= .9 * pairs && diff > 0 && beyond) verdict = "gain"
                else if (losses >= .9 * pairs && diff < 0 && beyond) verdict = "loss"
                else if (!beyond && pm > 0 && iqr / pm > bound)
                    verdict = sprintf("unresolved (parent IQR %.0f%% > bound %g%%)", 100 * iqr / pm, 100 * bound)
                else if (!beyond) verdict = "within parent IQR"
                if (pm && -diff / pm > bound) verdict = verdict " — WORSE THAN THE " 100 * bound "% BOUND"
                else if (verdict == "loss") verdict = "loss, inside the " 100 * bound "% bound"
                printf "%-10s %-7s %-28s %-28s %-6s %-8s %s\n", m, better,
                    sprintf("%.4g [%.4g..%.4g]", pm, quantile(ps, pairs, .25), quantile(ps, pairs, .75)),
                    sprintf("%.4g [%.4g..%.4g]", cm, quantile(cs, pairs, .25), quantile(cs, pairs, .75)),
                    wins + 0 "/" pairs, sprintf("%+.1f%%", pm ? 100 * (cm - pm) / pm : 0), verdict
            }' "$work/runs.tsv"
    done <<<"$metrics"
done
echo
echo "# raw values: $work/runs.tsv"
