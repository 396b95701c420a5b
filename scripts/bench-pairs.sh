#!/usr/bin/env sh
# Alternated parent/change pairs of the benchmark command in BENCHMARK.json.
#
#   scripts/bench-pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD METRIC SEED...
#
# PARENT_BIN and CHANGE_BIN are two `slim-bench` binaries (each built
# from its own checkout). For each seed, both run
# `--workload WORKLOAD --seed SEED --seconds <run_seconds> --trace 0`
# (run_seconds from BENCHMARK.json); odd pairs run the parent first, even
# pairs the change first. Per pair it prints every end-to-end metric of
# BENCHMARK.json, the failed/attempted operations and whether the run's
# own checks passed; then, per side, the median and quartiles of each
# metric; then how many pairs the change won on METRIC, in the direction
# BENCHMARK.json gives it (ties count for neither side), and the gap
# between the medians against the parent's interquartile range.
set -eu
[ "$#" -ge 5 ] || {
    sed -n '2,/^set/p' "$0" | sed '$d; s/^# \{0,1\}//'
    exit 2
}
parent=$1 change=$2 workload=$3 metric=$4
shift 4
spec="$(dirname "$0")/../BENCHMARK.json"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$spec")
metrics=$(sed -n '/"end_to_end"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' "$spec")
better=$(sed -n "/\"end_to_end\"/,/\]/s/.*\"name\": *\"$metric\".*\"better\": *\"\([a-z]*\)\".*/\1/p" "$spec")
[ -n "$better" ] || { echo "no end-to-end metric named $metric in $spec" >&2; exit 2; }
rows=$(mktemp)
trap 'rm -f "$rows"' EXIT

# One run: prints `side seed correct failed attempted name=value...`.
run() {
    "$2" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 2>/dev/null |
        tail -n 1 | awk -v side="$1" -v seed="$3" -v metrics="$metrics" '{
            correct = ($0 ~ /"correct": *true/) ? "ok" : "WRONG"
            failed = $0; sub(/.*"failed": */, "", failed); sub(/[,}].*/, "", failed)
            tried = $0; sub(/.*"attempted": */, "", tried); sub(/[,}].*/, "", tried)
            line = side " " seed " " correct " " failed " " tried
            n = split(metrics, names, "\n")
            for (i = 1; i <= n; i++) {
                v = $0
                if (!sub(".*\"" names[i] "\": *\\{\"value\": *", "", v)) v = "nan"
                sub(/[,}].*/, "", v)
                line = line " " names[i] "=" v
            }
            print line
        }'
}

pair=0
for seed in "$@"; do
    pair=$((pair + 1))
    if [ $((pair % 2)) -eq 1 ]; then
        first="parent $parent" second="change $change"
    else
        first="change $change" second="parent $parent"
    fi
    # shellcheck disable=SC2086
    for side in "$first" "$second"; do
        set -- $side
        run "$1" "$2" "$seed" | tee -a "$rows"
    done
done

awk -v metric="$metric" -v better="$better" -v metrics="$metrics" '
    function value(line, name,    v) {
        v = line; sub(".* " name "=", "", v); sub(/ .*/, "", v); return v + 0
    }
    function q(sorted, n, p,    h, lo) {
        h = (n - 1) * p; lo = int(h)
        return lo + 1 < n ? sorted[lo] + (h - lo) * (sorted[lo + 1] - sorted[lo]) : sorted[lo]
    }
    function stats(side, name,    n, i, j, t, xs) {
        n = 0
        for (i = 1; i <= rows; i++) if (row_side[i] == side) xs[n++] = value(row[i], name)
        for (i = 1; i < n; i++) for (j = i; j > 0 && xs[j - 1] > xs[j]; j--) {
            t = xs[j]; xs[j] = xs[j - 1]; xs[j - 1] = t
        }
        med[side] = q(xs, n, 0.5); q1[side] = q(xs, n, 0.25); q3[side] = q(xs, n, 0.75)
        return sprintf("median %.6g  q1 %.6g  q3 %.6g  (n %d)", med[side], q1[side], q3[side], n)
    }
    { rows++; row[rows] = $0; row_side[rows] = $1; seed[rows] = $2 }
    END {
        n = split(metrics, names, "\n")
        for (k = 1; k <= n; k++)
            for (s = 0; s < 2; s++) {
                side = s ? "change" : "parent"
                printf "%-14s %-6s %s\n", names[k], side, stats(side, names[k])
            }
        for (i = 1; i <= rows; i++) {
            if (row_side[i] == "parent") p[seed[i]] = value(row[i], metric)
            else c[seed[i]] = value(row[i], metric)
        }
        for (s in p) {
            pairs++
            if (better == "higher" ? c[s] > p[s] : c[s] < p[s]) wins++
        }
        stats("parent", metric); stats("change", metric)
        gap = med["change"] - med["parent"]
        printf "%s (%s is better): change ahead in %d of %d pairs; median gap %.6g, parent IQR %.6g\n",
            metric, better, wins, pairs, gap, q3["parent"] - q1["parent"]
    }
' "$rows"
