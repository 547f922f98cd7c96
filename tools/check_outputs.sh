#!/usr/bin/env bash
# Write the program's byte-stable outputs to OUTDIR, so that two checkouts
# can be compared with `diff -r OUTDIR_A OUTDIR_B`.
#
# Usage: tools/check_outputs.sh OUTDIR [CHECKOUT]
#
# CHECKOUT defaults to the checkout that holds this script.  Written for
# CHECKOUT, with its own src/, experiments/ and tests/data/:
#   - for each experiments/*.json, the runs CSV, the summary CSV and the
#     standard output of `homeomatch bench SPEC --no-timing`;
#   - on the worked example (tests/data/worked_*.graph) at (l, h) = (2,2),
#     (3,3) and (1,3), once per algorithm, the standard output, exit code
#     and `--stats --trace --no-timing` file of `determine --witness` and
#     of `enumerate`;
#   - the same for an empty, a one-vertex and an edgeless pattern against
#     the worked data graph at (1,3): searches that stop at the root or
#     go from the node level to a witness with no edge to match.  These
#     patterns are written to a temporary directory that is removed at
#     exit.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 OUTDIR [CHECKOUT]" >&2
    exit 2
fi
root=$(cd "${2:-$(dirname "$0")/..}" && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
hm() { python3 -m homeomatch "$@"; }
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for spec in "$root"/experiments/*.json; do
    name=$(basename "$spec" .json)
    hm bench "$spec" --out "$out/$name.csv" --summary "$out/$name.summary.csv" \
        --no-timing > "$out/$name.stdout"
done

# run NAME PATTERN L H: determine --witness and enumerate against the
# worked data graph, once per algorithm.
run() {
    local base rc extra
    for algo in ndshd1 ndshd2; do
        for cmd in determine enumerate; do
            base="$out/$1_${cmd}_l$3_h$4_${algo}"
            extra=()
            if [ "$cmd" = determine ]; then extra=(--witness); fi
            rc=0
            hm "$cmd" "$2" "$root/tests/data/worked_data.graph" --l "$3" --h "$4" \
                --algo "$algo" --stats "$base.stats.json" --trace --no-timing \
                "${extra[@]}" > "$base.stdout" || rc=$?
            echo "$rc" > "$base.exit"
        done
    done
}

for window in "2 2" "3 3" "1 3"; do
    run worked "$root/tests/data/worked_pattern.graph" $window
done

printf 'n 0 m 0\n' > "$tmp/empty.graph"
printf 'n 1 m 0\nv 1 a\n' > "$tmp/single.graph"
printf 'n 3 m 0\nv 1 a\nv 2 b\nv 3 d\n' > "$tmp/edgeless.graph"
for name in empty single edgeless; do
    run "$name" "$tmp/$name.graph" 1 3
done
