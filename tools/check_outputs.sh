#!/usr/bin/env bash
# Write the program's byte-stable outputs to OUTDIR, so that two checkouts
# can be compared with `diff -r OUTDIR_A OUTDIR_B`.
#
# Usage: tools/check_outputs.sh OUTDIR
#
# Written for the checkout that holds this script:
#   - for each experiments/*.json, the runs CSV, the summary CSV and the
#     standard output of `homeomatch bench SPEC --no-timing`;
#   - on the worked example (tests/data/worked_*.graph) at (l, h) = (2,2),
#     (3,3) and (1,3), once per algorithm, the standard output, exit code
#     and `--stats --trace --no-timing` file of `determine --witness` and
#     of `enumerate`.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
hm() { python3 -m homeomatch "$@"; }

for spec in "$root"/experiments/*.json; do
    name=$(basename "$spec" .json)
    hm bench "$spec" --out "$out/$name.csv" --summary "$out/$name.summary.csv" \
        --no-timing > "$out/$name.stdout"
done

pattern="$root/tests/data/worked_pattern.graph"
data="$root/tests/data/worked_data.graph"
for window in "2 2" "3 3" "1 3"; do
    set -- $window
    for algo in ndshd1 ndshd2; do
        for cmd in determine enumerate; do
            base="$out/worked_${cmd}_l$1_h$2_${algo}"
            extra=()
            if [ "$cmd" = determine ]; then extra=(--witness); fi
            rc=0
            hm "$cmd" "$pattern" "$data" --l "$1" --h "$2" --algo "$algo" \
                --stats "$base.stats.json" --trace --no-timing \
                "${extra[@]}" > "$base.stdout" || rc=$?
            echo "$rc" > "$base.exit"
        done
    done
done
